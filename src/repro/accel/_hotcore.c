/* _hotcore — the compiled backend's hot core.
 *
 * C implementations of the four innermost hot paths of the simulator,
 * drop-in compatible with their pure-Python counterparts (the golden
 * determinism suite runs the full workload matrix under both backends
 * and requires byte-identical SimulationResults):
 *
 *   Engine           — the calendar-bucket discrete-event queue of
 *                      repro/sim/engine.py: per-cycle FIFO buckets (kept
 *                      as a cycle-sorted C array), a zero-delay lane
 *                      (ring buffer) and a delay-1 lane, O(1) pending(),
 *                      lazy cancellation with threshold compaction.
 *                      schedule() returns an opaque Event handle that
 *                      only Engine.cancel(handle) reads.
 *   Message          — the __slots__ coherence-message record of
 *                      repro/net/messages.py: a plain record that lives
 *                      as long as something references it.  Constructed
 *                      through the make_message() fastcall factory (no
 *                      kwargs dict, no Python frame), with the keywords
 *                      of the Python make_message.
 *   Router           — the delivery step: Crossbar.connect wraps the
 *                      controllers' dense handler tables in it, and one
 *                      C call maps dst index -> kind index -> handler
 *                      (the Python backend schedules that handler
 *                      directly as the event).
 *   SendCore         — Crossbar.send: flit accounting, probe gating, and
 *                      the schedule of the Router, all without leaving C
 *                      (the schedule inserts directly into the C
 *                      engine's queue).
 *
 * Everything observable (event order, counters, error messages) matches
 * the Python implementations; only host time differs.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* Event                                                               */
/* ------------------------------------------------------------------ */

#define EVENT_INLINE_ARGS 6

typedef struct {
    PyObject_HEAD
    long long when;
    PyObject *fn;                       /* NULL once fired or cancelled */
    PyObject *args[EVENT_INLINE_ARGS];  /* inline positional args */
    Py_ssize_t nargs;                   /* -1: args[0] is a tuple */
} EventObject;

typedef struct {
    PyObject_HEAD
    /* Zero-delay lane: ring buffer of strong Event refs. */
    EventObject **lane;
    Py_ssize_t lane_cap, lane_head, lane_len;
    /* Delay-1 lane: plain vector. */
    EventObject **nextv;
    Py_ssize_t next_cap, next_len;
    /* Future buckets, sorted ascending by cycle.  The distinct-cycle
     * count is small in practice (a handful of latencies), so a sorted
     * array beats a heap + hash of the Python version. */
    struct bucket {
        long long cycle;
        EventObject **items;
        Py_ssize_t len, cap;
    } *buckets;
    Py_ssize_t nbuckets, buckets_cap;
    long long now;
    long long live, dead;
    long long events_processed;
} EngineObject;

static PyTypeObject Engine_Type;
static PyTypeObject Event_Type;

#define COMPACT_THRESHOLD 64

/* ------------------------------------------------------------------ */

static void
event_clear_payload(EventObject *ev)
{
    PyObject *fn = ev->fn;
    ev->fn = NULL;
    if (ev->nargs == -1) {
        Py_CLEAR(ev->args[0]);
    }
    else {
        for (Py_ssize_t i = 0; i < ev->nargs; i++) {
            Py_CLEAR(ev->args[i]);
        }
    }
    ev->nargs = 0;
    Py_XDECREF(fn);
}

static void
Event_dealloc(EventObject *self)
{
    PyObject_GC_UnTrack(self);
    event_clear_payload(self);
    PyObject_GC_Del(self);
}

static int
Event_traverse(EventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fn);
    if (self->nargs == -1) {
        Py_VISIT(self->args[0]);
    }
    else {
        for (Py_ssize_t i = 0; i < self->nargs; i++) {
            Py_VISIT(self->args[i]);
        }
    }
    return 0;
}

static int
Event_clear_gc(EventObject *self)
{
    event_clear_payload(self);
    return 0;
}

static PyTypeObject Event_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._hotcore.Event",
    .tp_basicsize = sizeof(EventObject),
    .tp_dealloc = (destructor)Event_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A scheduled event; opaque, the handle Engine.cancel takes.",
    .tp_traverse = (traverseproc)Event_traverse,
    .tp_clear = (inquiry)Event_clear_gc,
};

/* ------------------------------------------------------------------ */
/* Engine internals                                                    */
/* ------------------------------------------------------------------ */

static int
lane_push(EngineObject *e, EventObject *ev)  /* steals ref on success */
{
    if (e->lane_len == e->lane_cap) {
        Py_ssize_t cap = e->lane_cap ? e->lane_cap * 2 : 64;
        EventObject **buf = PyMem_New(EventObject *, cap);
        if (buf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < e->lane_len; i++) {
            buf[i] = e->lane[(e->lane_head + i) % (e->lane_cap ? e->lane_cap : 1)];
        }
        PyMem_Free(e->lane);
        e->lane = buf;
        e->lane_cap = cap;
        e->lane_head = 0;
    }
    e->lane[(e->lane_head + e->lane_len) % e->lane_cap] = ev;
    e->lane_len++;
    return 0;
}

static EventObject *
lane_pop(EngineObject *e)  /* returns owned ref, or NULL if empty */
{
    if (e->lane_len == 0) {
        return NULL;
    }
    EventObject *ev = e->lane[e->lane_head];
    e->lane_head = (e->lane_head + 1) % e->lane_cap;
    e->lane_len--;
    return ev;
}

static int
vec_push(EventObject ***items, Py_ssize_t *len, Py_ssize_t *cap,
         EventObject *ev)  /* steals ref on success */
{
    if (*len == *cap) {
        Py_ssize_t ncap = *cap ? *cap * 2 : 16;
        EventObject **buf = PyMem_Resize(*items, EventObject *, ncap);
        if (buf == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        *items = buf;
        *cap = ncap;
    }
    (*items)[(*len)++] = ev;
    return 0;
}

/* Find the bucket index for `cycle`; returns insertion point if absent
 * (with *found set accordingly).  Buckets are sorted by cycle. */
static Py_ssize_t
bucket_search(EngineObject *e, long long cycle, int *found)
{
    Py_ssize_t lo = 0, hi = e->nbuckets;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (e->buckets[mid].cycle < cycle) {
            lo = mid + 1;
        }
        else {
            hi = mid;
        }
    }
    *found = (lo < e->nbuckets && e->buckets[lo].cycle == cycle);
    return lo;
}

static int
bucket_insert_event(EngineObject *e, long long cycle, EventObject *ev)
{
    int found;
    Py_ssize_t idx = bucket_search(e, cycle, &found);
    if (!found) {
        if (e->nbuckets == e->buckets_cap) {
            Py_ssize_t cap = e->buckets_cap ? e->buckets_cap * 2 : 16;
            struct bucket *buf =
                PyMem_Resize(e->buckets, struct bucket, cap);
            if (buf == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            e->buckets = buf;
            e->buckets_cap = cap;
        }
        memmove(&e->buckets[idx + 1], &e->buckets[idx],
                (e->nbuckets - idx) * sizeof(struct bucket));
        e->buckets[idx].cycle = cycle;
        e->buckets[idx].items = NULL;
        e->buckets[idx].len = 0;
        e->buckets[idx].cap = 0;
        e->nbuckets++;
    }
    struct bucket *b = &e->buckets[idx];
    return vec_push(&b->items, &b->len, &b->cap, ev);
}

/* Drop cancelled entries in place, preserving order (mirror of
 * Engine._compact).  Emptied buckets stay registered. */
static void
engine_compact(EngineObject *e)
{
    for (Py_ssize_t bi = 0; bi < e->nbuckets; bi++) {
        struct bucket *b = &e->buckets[bi];
        Py_ssize_t w = 0;
        for (Py_ssize_t i = 0; i < b->len; i++) {
            if (b->items[i]->fn != NULL) {
                b->items[w++] = b->items[i];
            }
            else {
                Py_DECREF(b->items[i]);
            }
        }
        b->len = w;
    }
    Py_ssize_t w = 0;
    for (Py_ssize_t i = 0; i < e->next_len; i++) {
        if (e->nextv[i]->fn != NULL) {
            e->nextv[w++] = e->nextv[i];
        }
        else {
            Py_DECREF(e->nextv[i]);
        }
    }
    e->next_len = w;
    /* Lane: compact in ring order.  Logical write position `kept` never
     * passes read position `i`, so each write lands on a slot already
     * read, also when the ring wraps past the end of the buffer. */
    Py_ssize_t kept = 0;
    for (Py_ssize_t i = 0; i < e->lane_len; i++) {
        EventObject *ev = e->lane[(e->lane_head + i) % e->lane_cap];
        if (ev->fn != NULL) {
            e->lane[(e->lane_head + kept) % e->lane_cap] = ev;
            kept++;
        }
        else {
            Py_DECREF(ev);
        }
    }
    e->lane_len = kept;
    e->dead = 0;
}

static void
engine_note_dead(EngineObject *e)
{
    e->live--;
    e->dead++;
    if (e->dead >= COMPACT_THRESHOLD && e->dead >= e->live) {
        engine_compact(e);
    }
}

/* Core scheduling: mirrors Engine.schedule exactly.  Steals nothing;
 * returns a new ref to the created event, or NULL on error. */
static EventObject *
engine_schedule_event(EngineObject *e, long long delay, PyObject *fn,
                      PyObject *const *args, Py_ssize_t nargs)
{
    if (delay < 0) {
        PyErr_SetString(PyExc_ValueError, "cannot schedule into the past");
        return NULL;
    }
    EventObject *ev = PyObject_GC_New(EventObject, &Event_Type);
    if (ev == NULL) {
        return NULL;
    }
    ev->fn = Py_NewRef(fn);
    if (nargs <= EVENT_INLINE_ARGS) {
        for (Py_ssize_t i = 0; i < nargs; i++) {
            ev->args[i] = Py_NewRef(args[i]);
        }
        ev->nargs = nargs;
    }
    else {
        PyObject *tup = PyTuple_New(nargs);
        if (tup == NULL) {
            ev->nargs = 0;
            Py_DECREF(ev);
            return NULL;
        }
        for (Py_ssize_t i = 0; i < nargs; i++) {
            PyTuple_SET_ITEM(tup, i, Py_NewRef(args[i]));
        }
        ev->args[0] = tup;
        ev->nargs = -1;
    }
    PyObject_GC_Track(ev);

    int rc;
    if (delay == 1) {
        ev->when = e->now + 1;
        Py_INCREF(ev);
        rc = vec_push(&e->nextv, &e->next_len, &e->next_cap, ev);
    }
    else if (delay != 0) {
        ev->when = e->now + delay;
        Py_INCREF(ev);
        rc = bucket_insert_event(e, ev->when, ev);
    }
    else {
        ev->when = e->now;
        Py_INCREF(ev);
        rc = lane_push(e, ev);
    }
    if (rc < 0) {
        Py_DECREF(ev);  /* the queue's would-be ref */
        Py_DECREF(ev);  /* the caller's ref */
        return NULL;
    }
    e->live++;
    return ev;
}

/* Seed the empty lane with the next populated cycle's events (mirror of
 * Engine._advance).  until < 0 means unbounded.  Returns 0/1, -1 on
 * allocation error. */
static int
engine_advance(EngineObject *e, long long until, int bounded)
{
    long long target = e->now + 1;
    long long cycle;
    if (e->nbuckets) {
        cycle = e->buckets[0].cycle;
        if (e->next_len && target < cycle) {
            cycle = target;
        }
    }
    else if (e->next_len) {
        cycle = target;
    }
    else {
        return 0;
    }
    if (bounded && cycle > until) {
        return 0;
    }
    if (e->nbuckets && e->buckets[0].cycle == cycle) {
        /* Pop the first bucket and append its entries to the lane. */
        struct bucket b = e->buckets[0];
        memmove(&e->buckets[0], &e->buckets[1],
                (e->nbuckets - 1) * sizeof(struct bucket));
        e->nbuckets--;
        for (Py_ssize_t i = 0; i < b.len; i++) {
            if (lane_push(e, b.items[i]) < 0) {
                /* Roll the remainder's refs into the lane is impossible;
                 * drop them (allocation failure is unrecoverable here). */
                for (Py_ssize_t j = i; j < b.len; j++) {
                    Py_DECREF(b.items[j]);
                }
                PyMem_Free(b.items);
                return -1;
            }
        }
        PyMem_Free(b.items);
    }
    if (e->next_len && cycle == target) {
        for (Py_ssize_t i = 0; i < e->next_len; i++) {
            if (lane_push(e, e->nextv[i]) < 0) {
                for (Py_ssize_t j = i; j < e->next_len; j++) {
                    Py_DECREF(e->nextv[j]);
                }
                e->next_len = 0;
                return -1;
            }
        }
        e->next_len = 0;
    }
    return 1;
}

/* Fire one event: clears the payload first (a late cancel must no-op),
 * then calls fn(*args).  Returns 0, -1 on callback error. */
static int
event_fire(EngineObject *e, EventObject *ev)
{
    PyObject *fn = ev->fn;
    PyObject *inline_args[EVENT_INLINE_ARGS] = {NULL};
    PyObject *tup = NULL;
    Py_ssize_t nargs = ev->nargs;
    if (nargs == -1) {
        tup = ev->args[0];
        ev->args[0] = NULL;
    }
    else {
        for (Py_ssize_t i = 0; i < nargs; i++) {
            inline_args[i] = ev->args[i];
            ev->args[i] = NULL;
        }
    }
    ev->fn = NULL;
    ev->nargs = 0;
    e->now = ev->when;
    e->live--;

    PyObject *res;
    if (tup != NULL) {
        res = PyObject_CallObject(fn, tup);
        Py_DECREF(tup);
    }
    else {
        res = PyObject_Vectorcall(fn, inline_args, nargs, NULL);
        for (Py_ssize_t i = 0; i < nargs; i++) {
            Py_DECREF(inline_args[i]);
        }
    }
    Py_DECREF(fn);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Engine methods                                                      */
/* ------------------------------------------------------------------ */

static PyObject *
Engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    EngineObject *self = (EngineObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    self->lane = NULL;
    self->lane_cap = self->lane_head = self->lane_len = 0;
    self->nextv = NULL;
    self->next_cap = self->next_len = 0;
    self->buckets = NULL;
    self->nbuckets = self->buckets_cap = 0;
    self->now = 0;
    self->live = self->dead = 0;
    self->events_processed = 0;
    return (PyObject *)self;
}

static int
Engine_traverse(EngineObject *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->lane_len; i++) {
        Py_VISIT(self->lane[(self->lane_head + i) % self->lane_cap]);
    }
    for (Py_ssize_t i = 0; i < self->next_len; i++) {
        Py_VISIT(self->nextv[i]);
    }
    for (Py_ssize_t bi = 0; bi < self->nbuckets; bi++) {
        for (Py_ssize_t i = 0; i < self->buckets[bi].len; i++) {
            Py_VISIT(self->buckets[bi].items[i]);
        }
    }
    return 0;
}

static int
Engine_clear_gc(EngineObject *self)
{
    for (Py_ssize_t i = 0; i < self->lane_len; i++) {
        Py_CLEAR(self->lane[(self->lane_head + i) % self->lane_cap]);
    }
    self->lane_len = self->lane_head = 0;
    for (Py_ssize_t i = 0; i < self->next_len; i++) {
        Py_CLEAR(self->nextv[i]);
    }
    self->next_len = 0;
    for (Py_ssize_t bi = 0; bi < self->nbuckets; bi++) {
        struct bucket *b = &self->buckets[bi];
        for (Py_ssize_t i = 0; i < b->len; i++) {
            Py_CLEAR(b->items[i]);
        }
        PyMem_Free(b->items);
    }
    self->nbuckets = 0;
    return 0;
}

static void
Engine_dealloc(EngineObject *self)
{
    PyObject_GC_UnTrack(self);
    Engine_clear_gc(self);
    PyMem_Free(self->lane);
    PyMem_Free(self->nextv);
    PyMem_Free(self->buckets);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Engine_schedule(EngineObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule(delay, fn, *args) takes at least 2 "
                        "arguments");
        return NULL;
    }
    long long delay = PyLong_AsLongLong(args[0]);
    if (delay == -1 && PyErr_Occurred()) {
        return NULL;
    }
    return (PyObject *)engine_schedule_event(self, delay, args[1], args + 2,
                                             nargs - 2);
}

static PyObject *
Engine_schedule_at(EngineObject *self, PyObject *const *args,
                   Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "schedule_at(cycle, fn, *args) takes at least 2 "
                        "arguments");
        return NULL;
    }
    long long cycle = PyLong_AsLongLong(args[0]);
    if (cycle == -1 && PyErr_Occurred()) {
        return NULL;
    }
    return (PyObject *)engine_schedule_event(self, cycle - self->now,
                                             args[1], args + 2, nargs - 2);
}

static PyObject *
Engine_cancel(EngineObject *self, PyObject *handle)
{
    if (!PyObject_TypeCheck(handle, &Event_Type)) {
        PyErr_SetString(PyExc_TypeError,
                        "cancel() takes a handle schedule() returned");
        return NULL;
    }
    EventObject *ev = (EventObject *)handle;
    if (ev->fn == NULL) {
        Py_RETURN_NONE;
    }
    event_clear_payload(ev);
    engine_note_dead(self);
    Py_RETURN_NONE;
}

static PyObject *
Engine_pending(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->live);
}

static PyObject *
Engine_step(EngineObject *self, PyObject *Py_UNUSED(ignored))
{
    for (;;) {
        EventObject *ev = lane_pop(self);
        if (ev != NULL) {
            if (ev->fn == NULL) {
                self->dead--;
                Py_DECREF(ev);
                continue;
            }
            self->events_processed++;
            int rc = event_fire(self, ev);
            Py_DECREF(ev);
            if (rc < 0) {
                return NULL;
            }
            Py_RETURN_TRUE;
        }
        int adv = engine_advance(self, 0, 0);
        if (adv < 0) {
            return NULL;
        }
        if (adv == 0) {
            Py_RETURN_FALSE;
        }
    }
}

static PyObject *
Engine_run(EngineObject *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    long long until = 0, max_events = 0;
    int has_until = 0, has_max = 0;
    static const char *const names[] = {"until", "max_events"};
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    if (nargs != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "run() takes keyword arguments only");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < nkw; i++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, i);
        PyObject *value = args[nargs + i];
        const char *text = PyUnicode_AsUTF8(name);
        if (text == NULL) {
            return NULL;
        }
        if (strcmp(text, names[0]) == 0) {
            if (value != Py_None) {
                until = PyLong_AsLongLong(value);
                if (until == -1 && PyErr_Occurred()) {
                    return NULL;
                }
                has_until = 1;
            }
        }
        else if (strcmp(text, names[1]) == 0) {
            if (value != Py_None) {
                max_events = PyLong_AsLongLong(value);
                if (max_events == -1 && PyErr_Occurred()) {
                    return NULL;
                }
                has_max = 1;
            }
        }
        else {
            PyErr_Format(PyExc_TypeError,
                         "run() got an unexpected keyword argument '%s'",
                         text);
            return NULL;
        }
    }
    if (has_until && until < self->now) {
        return PyLong_FromLongLong(self->now);
    }

    long long processed = 0;
    int failed = 0;
    for (;;) {
        if (self->lane_len) {
            EventObject *head =
                self->lane[self->lane_head];  /* peek, don't pop */
            if (head->fn == NULL) {
                lane_pop(self);
                self->dead--;
                Py_DECREF(head);
                continue;
            }
            if (has_max && processed >= max_events) {
                PyErr_Format(PyExc_RuntimeError,
                             "engine exceeded %lld events at cycle %lld; "
                             "likely livelock in the simulated machine",
                             max_events, self->now);
                failed = 1;
                break;
            }
            lane_pop(self);
            processed++;
            int rc = event_fire(self, head);
            Py_DECREF(head);
            if (rc < 0) {
                failed = 1;
                break;
            }
            continue;
        }
        int adv = engine_advance(self, until, has_until);
        if (adv < 0) {
            failed = 1;
            break;
        }
        if (adv == 0) {
            break;
        }
    }
    self->events_processed += processed;
    if (failed) {
        return NULL;
    }
    if (has_until && until > self->now) {
        self->now = until;
    }
    return PyLong_FromLongLong(self->now);
}

static PyObject *
Engine_get_now(EngineObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->now);
}

static PyMethodDef Engine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Engine_schedule,
     METH_FASTCALL,
     "schedule(delay, fn, *args) -> handle\n"
     "Run fn(*args) after delay cycles; returns the opaque handle "
     "cancel() takes."},
    {"schedule_at", (PyCFunction)(void (*)(void))Engine_schedule_at,
     METH_FASTCALL, "schedule_at(cycle, fn, *args) -> handle"},
    {"cancel", (PyCFunction)Engine_cancel, METH_O,
     "cancel(handle): mark a scheduled event dead in place; cancelling "
     "a fired or cancelled event is a no-op."},
    {"run", (PyCFunction)(void (*)(void))Engine_run,
     METH_FASTCALL | METH_KEYWORDS,
     "run(*, until=None, max_events=None) -> int\n"
     "Drain the queue; returns the final cycle."},
    {"step", (PyCFunction)Engine_step, METH_NOARGS,
     "Process one event.  Returns False when the queue is empty."},
    {"pending", (PyCFunction)Engine_pending, METH_NOARGS,
     "Number of live (non-cancelled) queued events — O(1)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Engine_members[] = {
    {"events_processed", T_LONGLONG, offsetof(EngineObject, events_processed),
     0, "Total events fired by this engine."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef Engine_getset[] = {
    {"now", (getter)Engine_get_now, NULL, "Current simulated cycle.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Engine_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._hotcore.Engine",
    .tp_basicsize = sizeof(EngineObject),
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled deterministic discrete-event engine (drop-in for "
              "repro.sim.engine.Engine).",
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear_gc,
    .tp_methods = Engine_methods,
    .tp_members = Engine_members,
    .tp_getset = Engine_getset,
    .tp_new = Engine_new,
};

/* ------------------------------------------------------------------ */
/* Message                                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *kind;       /* MessageKind member */
    long src, dst, block, epoch, req_id;
    PyObject *data;       /* tuple | None */
    PyObject *requester;  /* int | None */
    PyObject *pic;        /* int | None */
    PyObject *timestamp;  /* int | None */
    PyObject *action;     /* str | None */
    char exclusive, power, can_consume, is_validation, non_transactional;
    char req_produced, req_consumed;
    int kind_idx;
    char carries_data;
} MessageObject;

static PyTypeObject Message_Type;

/* Per-kind (idx, carries_data) cache keyed by the enum member pointer:
 * enum members are module-lifetime singletons, so a small linear scan
 * beats two attribute lookups per constructed message. */
#define KIND_CACHE_SIZE 32
static struct {
    PyObject *kind;  /* strong ref */
    int idx;
    char carries_data;
} kind_cache[KIND_CACHE_SIZE];
static Py_ssize_t kind_cache_len = 0;

static int
kind_lookup(PyObject *kind, int *idx, char *carries_data)
{
    for (Py_ssize_t i = 0; i < kind_cache_len; i++) {
        if (kind_cache[i].kind == kind) {
            *idx = kind_cache[i].idx;
            *carries_data = kind_cache[i].carries_data;
            return 0;
        }
    }
    PyObject *idx_obj = PyObject_GetAttrString(kind, "idx");
    if (idx_obj == NULL) {
        return -1;
    }
    long idx_val = PyLong_AsLong(idx_obj);
    Py_DECREF(idx_obj);
    if (idx_val == -1 && PyErr_Occurred()) {
        return -1;
    }
    PyObject *cd_obj = PyObject_GetAttrString(kind, "carries_data");
    if (cd_obj == NULL) {
        return -1;
    }
    int cd = PyObject_IsTrue(cd_obj);
    Py_DECREF(cd_obj);
    if (cd < 0) {
        return -1;
    }
    *idx = (int)idx_val;
    *carries_data = (char)cd;
    if (kind_cache_len < KIND_CACHE_SIZE) {
        kind_cache[kind_cache_len].kind = Py_NewRef(kind);
        kind_cache[kind_cache_len].idx = (int)idx_val;
        kind_cache[kind_cache_len].carries_data = (char)cd;
        kind_cache_len++;
    }
    return 0;
}

static void
Message_dealloc(MessageObject *self)
{
    Py_CLEAR(self->kind);
    Py_CLEAR(self->data);
    Py_CLEAR(self->requester);
    Py_CLEAR(self->pic);
    Py_CLEAR(self->timestamp);
    Py_CLEAR(self->action);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Message_repr(MessageObject *self)
{
    PyObject *value = PyObject_GetAttrString(self->kind, "value");
    if (value == NULL) {
        return NULL;
    }
    char tail[96];
    snprintf(tail, sizeof(tail), " %ld->%ld blk=0x%lx%s%s e%ld>",
             self->src, self->dst, (unsigned long)self->block,
             self->is_validation ? " V" : "", self->power ? " P" : "",
             self->epoch);
    PyObject *out = PyUnicode_FromFormat("<%U%s", value, tail);
    Py_DECREF(value);
    return out;
}

static PyMemberDef Message_members[] = {
    {"kind", T_OBJECT, offsetof(MessageObject, kind), 0, NULL},
    {"src", T_LONG, offsetof(MessageObject, src), 0, NULL},
    {"dst", T_LONG, offsetof(MessageObject, dst), 0, NULL},
    {"block", T_LONG, offsetof(MessageObject, block), 0, NULL},
    {"epoch", T_LONG, offsetof(MessageObject, epoch), 0, NULL},
    {"req_id", T_LONG, offsetof(MessageObject, req_id), 0, NULL},
    {"data", T_OBJECT, offsetof(MessageObject, data), 0, NULL},
    {"requester", T_OBJECT, offsetof(MessageObject, requester), 0, NULL},
    {"pic", T_OBJECT, offsetof(MessageObject, pic), 0, NULL},
    {"timestamp", T_OBJECT, offsetof(MessageObject, timestamp), 0, NULL},
    {"action", T_OBJECT, offsetof(MessageObject, action), 0, NULL},
    {"exclusive", T_BOOL, offsetof(MessageObject, exclusive), 0, NULL},
    {"power", T_BOOL, offsetof(MessageObject, power), 0, NULL},
    {"can_consume", T_BOOL, offsetof(MessageObject, can_consume), 0, NULL},
    {"is_validation", T_BOOL, offsetof(MessageObject, is_validation), 0,
     NULL},
    {"non_transactional", T_BOOL,
     offsetof(MessageObject, non_transactional), 0, NULL},
    {"req_produced", T_BOOL, offsetof(MessageObject, req_produced), 0, NULL},
    {"req_consumed", T_BOOL, offsetof(MessageObject, req_consumed), 0, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject Message_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._hotcore.Message",
    .tp_basicsize = sizeof(MessageObject),
    .tp_dealloc = (destructor)Message_dealloc,
    .tp_repr = (reprfunc)Message_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Coherence message record (drop-in for "
              "repro.net.messages.Message).",
    .tp_members = Message_members,
};

/* Parameter names of make_message, in the Python make_message order.
 * Interned at module init for pointer-compare kwarg matching. */
#define MSG_NPARAMS 18
static const char *const msg_param_names[MSG_NPARAMS] = {
    "kind", "src", "dst", "block", "data", "requester", "exclusive", "pic",
    "power", "timestamp", "epoch", "req_id", "can_consume", "is_validation",
    "non_transactional", "req_produced", "req_consumed", "action",
};
static PyObject *msg_param_interned[MSG_NPARAMS];

enum {
    P_KIND, P_SRC, P_DST, P_BLOCK, P_DATA, P_REQUESTER, P_EXCLUSIVE, P_PIC,
    P_POWER, P_TIMESTAMP, P_EPOCH, P_REQ_ID, P_CAN_CONSUME,
    P_IS_VALIDATION, P_NON_TRANSACTIONAL, P_REQ_PRODUCED, P_REQ_CONSUMED,
    P_ACTION,
};

static PyObject *
make_message(PyObject *Py_UNUSED(module), PyObject *const *args,
             Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *values[MSG_NPARAMS] = {NULL};
    if (nargs > MSG_NPARAMS) {
        PyErr_SetString(PyExc_TypeError,
                        "make_message() takes at most 18 arguments");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < nargs; i++) {
        values[i] = args[i];
    }
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    for (Py_ssize_t i = 0; i < nkw; i++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, i);
        Py_ssize_t slot = -1;
        for (Py_ssize_t j = 0; j < MSG_NPARAMS; j++) {
            if (msg_param_interned[j] == name) {
                slot = j;
                break;
            }
        }
        if (slot < 0) {
            /* Non-interned caller (rare): fall back to text compare. */
            for (Py_ssize_t j = 0; j < MSG_NPARAMS; j++) {
                int eq = PyUnicode_Compare(msg_param_interned[j], name);
                if (eq == -1 && PyErr_Occurred()) {
                    return NULL;
                }
                if (eq == 0) {
                    slot = j;
                    break;
                }
            }
        }
        if (slot < 0) {
            PyErr_Format(PyExc_TypeError,
                         "make_message() got an unexpected keyword "
                         "argument %R", name);
            return NULL;
        }
        if (values[slot] != NULL) {
            PyErr_Format(PyExc_TypeError,
                         "make_message() got multiple values for "
                         "argument %R", name);
            return NULL;
        }
        values[slot] = args[nargs + i];
    }
    if (values[P_KIND] == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "make_message() missing required argument 'kind'");
        return NULL;
    }

    MessageObject *self = PyObject_New(MessageObject, &Message_Type);
    if (self == NULL) {
        return NULL;
    }
    /* NULL until set, so a failed conversion can dealloc the record. */
    self->kind = NULL;
    self->data = NULL;
    self->requester = NULL;
    self->pic = NULL;
    self->timestamp = NULL;
    self->action = NULL;

#define AS_LONG(slot, dflt, field)                                       \
    do {                                                                 \
        if (values[slot] == NULL) {                                      \
            self->field = (dflt);                                        \
        }                                                                \
        else {                                                           \
            long v_ = PyLong_AsLong(values[slot]);                       \
            if (v_ == -1 && PyErr_Occurred()) {                          \
                goto fail;                                               \
            }                                                            \
            self->field = v_;                                            \
        }                                                                \
    } while (0)
#define AS_BOOL(slot, dflt, field)                                       \
    do {                                                                 \
        if (values[slot] == NULL) {                                      \
            self->field = (dflt);                                        \
        }                                                                \
        else {                                                           \
            int v_ = PyObject_IsTrue(values[slot]);                      \
            if (v_ < 0) {                                                \
                goto fail;                                               \
            }                                                            \
            self->field = (char)v_;                                      \
        }                                                                \
    } while (0)
#define AS_OBJ(slot, field)                                              \
    self->field = Py_NewRef(values[slot] != NULL ? values[slot] : Py_None)

    AS_LONG(P_SRC, 0, src);
    AS_LONG(P_DST, 0, dst);
    AS_LONG(P_BLOCK, 0, block);
    AS_LONG(P_EPOCH, 0, epoch);
    AS_LONG(P_REQ_ID, 0, req_id);
    AS_BOOL(P_EXCLUSIVE, 0, exclusive);
    AS_BOOL(P_POWER, 0, power);
    AS_BOOL(P_CAN_CONSUME, 1, can_consume);
    AS_BOOL(P_IS_VALIDATION, 0, is_validation);
    AS_BOOL(P_NON_TRANSACTIONAL, 0, non_transactional);
    AS_BOOL(P_REQ_PRODUCED, 0, req_produced);
    AS_BOOL(P_REQ_CONSUMED, 0, req_consumed);
    AS_OBJ(P_DATA, data);
    AS_OBJ(P_REQUESTER, requester);
    AS_OBJ(P_PIC, pic);
    AS_OBJ(P_TIMESTAMP, timestamp);
    AS_OBJ(P_ACTION, action);
#undef AS_LONG
#undef AS_BOOL
#undef AS_OBJ

    if (kind_lookup(values[P_KIND], &self->kind_idx, &self->carries_data)
        < 0) {
        goto fail;
    }
    self->kind = Py_NewRef(values[P_KIND]);
    return (PyObject *)self;

fail:
    Py_DECREF(self);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Router                                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *tables;  /* list of per-dst handler lists; directory last */
    Py_ssize_t n;
} RouterObject;

static PyTypeObject Router_Type;

static PyObject *
Router_call(RouterObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *msg;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "router takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O", &msg)) {
        return NULL;
    }

    Py_ssize_t dst;
    Py_ssize_t kind_idx;
    if (PyObject_TypeCheck(msg, &Message_Type)) {
        dst = ((MessageObject *)msg)->dst;
        kind_idx = ((MessageObject *)msg)->kind_idx;
    }
    else {
        PyObject *dst_obj = PyObject_GetAttrString(msg, "dst");
        if (dst_obj == NULL) {
            return NULL;
        }
        dst = PyLong_AsSsize_t(dst_obj);
        Py_DECREF(dst_obj);
        if (dst == -1 && PyErr_Occurred()) {
            return NULL;
        }
        PyObject *kind = PyObject_GetAttrString(msg, "kind");
        if (kind == NULL) {
            return NULL;
        }
        PyObject *idx_obj = PyObject_GetAttrString(kind, "idx");
        Py_DECREF(kind);
        if (idx_obj == NULL) {
            return NULL;
        }
        kind_idx = PyLong_AsSsize_t(idx_obj);
        Py_DECREF(idx_obj);
        if (kind_idx == -1 && PyErr_Occurred()) {
            return NULL;
        }
    }
    if (dst < 0) {
        dst += self->n;  /* DIRECTORY == -1 -> last slot */
    }
    if (dst < 0 || dst >= self->n) {
        PyErr_Format(PyExc_IndexError, "message dst %zd out of range", dst);
        return NULL;
    }
    PyObject *table = PyList_GET_ITEM(self->tables, dst);
    if (kind_idx < 0 || kind_idx >= PyList_GET_SIZE(table)) {
        PyErr_Format(PyExc_IndexError,
                     "message kind index %zd out of range", kind_idx);
        return NULL;
    }
    PyObject *handler = PyList_GET_ITEM(table, kind_idx);
    if (handler == Py_None) {
        PyErr_Format(PyExc_RuntimeError, "no handler for %R", msg);
        return NULL;
    }
    PyObject *res = PyObject_CallOneArg(handler, msg);
    if (res == NULL) {
        return NULL;
    }
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static int
Router_traverse(RouterObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->tables);
    return 0;
}

static int
Router_clear_gc(RouterObject *self)
{
    Py_CLEAR(self->tables);
    return 0;
}

static void
Router_dealloc(RouterObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->tables);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Router_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *tables;
    if (!PyArg_ParseTuple(args, "O!", &PyList_Type, &tables)) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(tables); i++) {
        if (!PyList_Check(PyList_GET_ITEM(tables, i))) {
            PyErr_SetString(PyExc_TypeError,
                            "Router expects a list of handler lists");
            return NULL;
        }
    }
    RouterObject *self = (RouterObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    self->tables = Py_NewRef(tables);
    self->n = PyList_GET_SIZE(tables);
    return (PyObject *)self;
}

static PyTypeObject Router_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._hotcore.Router",
    .tp_basicsize = sizeof(RouterObject),
    .tp_dealloc = (destructor)Router_dealloc,
    .tp_call = (ternaryfunc)Router_call,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Dense message-delivery router: dst index -> kind index -> "
              "handler.",
    .tp_traverse = (traverseproc)Router_traverse,
    .tp_clear = (inquiry)Router_clear_gc,
    .tp_new = Router_new,
};

/* ------------------------------------------------------------------ */
/* SendCore                                                            */
/* ------------------------------------------------------------------ */

#define SENDCORE_NKINDS 32

typedef struct {
    PyObject_HEAD
    EngineObject *engine;  /* must be the compiled engine */
    PyObject *deliver;     /* router (or any callable) */
    PyObject *probe;       /* the simulator's Probe */
    PyObject *emit_hook;   /* callable(msg): traced-path emission */
    long long link_latency, data_flits, control_flits;
    long long flits_sent, messages_sent;
    long long flits_by_idx[SENDCORE_NKINDS];
} SendCoreObject;

static PyTypeObject SendCore_Type;
static PyObject *str_subscribers;  /* interned "_subscribers" */

static PyObject *
SendCore_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *engine, *deliver, *probe, *emit_hook;
    long long link_latency, data_flits, control_flits;
    static char *kwlist[] = {"engine", "deliver", "probe", "emit_hook",
                             "link_latency", "data_flits", "control_flits",
                             NULL};
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "O!OOOLLL", kwlist, &Engine_Type, &engine, &deliver,
            &probe, &emit_hook, &link_latency, &data_flits,
            &control_flits)) {
        return NULL;
    }
    SendCoreObject *self = (SendCoreObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        return NULL;
    }
    self->engine = (EngineObject *)Py_NewRef(engine);
    self->deliver = Py_NewRef(deliver);
    self->probe = Py_NewRef(probe);
    self->emit_hook = Py_NewRef(emit_hook);
    self->link_latency = link_latency;
    self->data_flits = data_flits;
    self->control_flits = control_flits;
    self->flits_sent = 0;
    self->messages_sent = 0;
    memset(self->flits_by_idx, 0, sizeof(self->flits_by_idx));
    return (PyObject *)self;
}

static int
SendCore_traverse(SendCoreObject *self, visitproc visit, void *arg)
{
    Py_VISIT((PyObject *)self->engine);
    Py_VISIT(self->deliver);
    Py_VISIT(self->probe);
    Py_VISIT(self->emit_hook);
    return 0;
}

static int
SendCore_clear_gc(SendCoreObject *self)
{
    Py_CLEAR(self->engine);
    Py_CLEAR(self->deliver);
    Py_CLEAR(self->probe);
    Py_CLEAR(self->emit_hook);
    return 0;
}

static void
SendCore_dealloc(SendCoreObject *self)
{
    PyObject_GC_UnTrack(self);
    SendCore_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
SendCore_send(SendCoreObject *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError,
                        "send(msg, *, extra_delay=0) takes one positional "
                        "argument");
        return NULL;
    }
    PyObject *msg = args[0];
    long long extra_delay = 0;
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    for (Py_ssize_t i = 0; i < nkw; i++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, i);
        const char *text = PyUnicode_AsUTF8(name);
        if (text == NULL) {
            return NULL;
        }
        if (strcmp(text, "extra_delay") != 0) {
            PyErr_Format(PyExc_TypeError,
                         "send() got an unexpected keyword argument '%s'",
                         text);
            return NULL;
        }
        extra_delay = PyLong_AsLongLong(args[nargs + i]);
        if (extra_delay == -1 && PyErr_Occurred()) {
            return NULL;
        }
    }

    char carries_data;
    int kind_idx;
    if (PyObject_TypeCheck(msg, &Message_Type)) {
        carries_data = ((MessageObject *)msg)->carries_data;
        kind_idx = ((MessageObject *)msg)->kind_idx;
    }
    else {
        PyObject *kind = PyObject_GetAttrString(msg, "kind");
        if (kind == NULL) {
            return NULL;
        }
        int idx;
        if (kind_lookup(kind, &idx, &carries_data) < 0) {
            Py_DECREF(kind);
            return NULL;
        }
        Py_DECREF(kind);
        kind_idx = idx;
    }

    long long flits = carries_data ? self->data_flits : self->control_flits;
    self->flits_sent += flits;
    self->messages_sent += 1;
    if (kind_idx >= 0 && kind_idx < SENDCORE_NKINDS) {
        self->flits_by_idx[kind_idx] += flits;
    }

    /* Probe gating: mirror `if probe._subscribers:` from the Python
     * send, delegating event construction to the Python hook. */
    PyObject *subs = PyObject_GetAttr(self->probe, str_subscribers);
    if (subs == NULL) {
        return NULL;
    }
    int traced = PyObject_IsTrue(subs);
    Py_DECREF(subs);
    if (traced < 0) {
        return NULL;
    }
    if (traced) {
        PyObject *res = PyObject_CallOneArg(self->emit_hook, msg);
        if (res == NULL) {
            return NULL;
        }
        Py_DECREF(res);
    }

    EventObject *ev = engine_schedule_event(
        self->engine, self->link_latency + extra_delay, self->deliver, &msg,
        1);
    if (ev == NULL) {
        return NULL;
    }
    Py_DECREF(ev);
    Py_RETURN_NONE;
}

static PyObject *
SendCore_flits_list(SendCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = PyList_New(SENDCORE_NKINDS);
    if (out == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < SENDCORE_NKINDS; i++) {
        PyObject *v = PyLong_FromLongLong(self->flits_by_idx[i]);
        if (v == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, v);
    }
    return out;
}

static PyObject *
SendCore_set_deliver(SendCoreObject *self, PyObject *deliver)
{
    Py_XSETREF(self->deliver, Py_NewRef(deliver));
    Py_RETURN_NONE;
}

static PyMethodDef SendCore_methods[] = {
    {"send", (PyCFunction)(void (*)(void))SendCore_send,
     METH_FASTCALL | METH_KEYWORDS,
     "send(msg, *, extra_delay=0): account flits and schedule delivery."},
    {"flits_list", (PyCFunction)SendCore_flits_list, METH_NOARGS,
     "Per-kind flit totals as a dense list indexed by MessageKind.idx."},
    {"set_deliver", (PyCFunction)SendCore_set_deliver, METH_O,
     "Rebind the delivery callable (wired after the handler tables "
     "exist)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef SendCore_members[] = {
    {"flits_sent", T_LONGLONG, offsetof(SendCoreObject, flits_sent), 0,
     NULL},
    {"messages_sent", T_LONGLONG, offsetof(SendCoreObject, messages_sent),
     0, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject SendCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.accel._hotcore.SendCore",
    .tp_basicsize = sizeof(SendCoreObject),
    .tp_dealloc = (destructor)SendCore_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled Crossbar.send: flit accounting + direct C "
              "scheduling of the delivery callback.",
    .tp_traverse = (traverseproc)SendCore_traverse,
    .tp_clear = (inquiry)SendCore_clear_gc,
    .tp_methods = SendCore_methods,
    .tp_members = SendCore_members,
    .tp_new = SendCore_new,
};

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef hotcore_methods[] = {
    {"make_message", (PyCFunction)(void (*)(void))make_message,
     METH_FASTCALL | METH_KEYWORDS,
     "Fast message factory (drop-in for repro.net.messages.make_message)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef hotcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.accel._hotcore",
    .m_doc = "Compiled hot core: engine, message factory, router, and "
             "crossbar send.",
    .m_size = -1,
    .m_methods = hotcore_methods,
};

PyMODINIT_FUNC
PyInit__hotcore(void)
{
    for (Py_ssize_t i = 0; i < MSG_NPARAMS; i++) {
        msg_param_interned[i] = PyUnicode_InternFromString(
            msg_param_names[i]);
        if (msg_param_interned[i] == NULL) {
            return NULL;
        }
    }
    str_subscribers = PyUnicode_InternFromString("_subscribers");
    if (str_subscribers == NULL) {
        return NULL;
    }
    if (PyType_Ready(&Event_Type) < 0 || PyType_Ready(&Engine_Type) < 0 ||
        PyType_Ready(&Message_Type) < 0 || PyType_Ready(&Router_Type) < 0 ||
        PyType_Ready(&SendCore_Type) < 0) {
        return NULL;
    }
    PyObject *threshold = PyLong_FromLong(COMPACT_THRESHOLD);
    if (threshold == NULL) {
        return NULL;
    }
    if (PyDict_SetItemString(Engine_Type.tp_dict, "COMPACT_THRESHOLD",
                             threshold) < 0) {
        Py_DECREF(threshold);
        return NULL;
    }
    Py_DECREF(threshold);

    PyObject *m = PyModule_Create(&hotcore_module);
    if (m == NULL) {
        return NULL;
    }
    if (PyModule_AddObjectRef(m, "Engine", (PyObject *)&Engine_Type) < 0 ||
        PyModule_AddObjectRef(m, "Message", (PyObject *)&Message_Type) < 0 ||
        PyModule_AddObjectRef(m, "Router", (PyObject *)&Router_Type) < 0 ||
        PyModule_AddObjectRef(m, "SendCore", (PyObject *)&SendCore_Type)
            < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
