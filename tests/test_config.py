"""Unit tests for the configuration layer (Tables I and II)."""

import pytest

from repro.sim.config import HTMConfig, SystemConfig, table2_config
from repro.systems import ForwardClass, paper, paper_systems


class TestSystemConfig:
    def test_defaults_match_table1(self):
        c = SystemConfig()
        assert c.num_cores == 16
        assert c.l1_size_bytes == 48 * 1024
        assert c.l1_ways == 12
        assert c.l1_lines == 768
        assert c.l1_sets == 64
        assert c.words_per_block == 8
        assert c.data_message_flits == 5
        assert c.control_message_flits == 1

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cores=0)

    def test_rejects_misaligned_block(self):
        with pytest.raises(ValueError):
            SystemConfig(block_bytes=60)

    def test_rejects_uneven_ways(self):
        with pytest.raises(ValueError):
            SystemConfig(l1_size_bytes=64 * 10, l1_ways=3)

    def test_custom_geometry(self):
        c = SystemConfig(num_cores=4, l1_size_bytes=64 * 8, l1_ways=2)
        assert c.l1_lines == 8
        assert c.l1_sets == 4


class TestHTMConfig:
    def test_baseline_needs_no_vsb(self):
        htm = HTMConfig(system=paper.BASELINE)
        assert htm.vsb_size is None

    def test_forwarding_system_requires_vsb(self):
        with pytest.raises(ValueError):
            HTMConfig(system=paper.CHATS)

    def test_forwarding_system_requires_interval(self):
        with pytest.raises(ValueError):
            HTMConfig(
                system=paper.CHATS,
                vsb_size=4,
                forward_class=ForwardClass.W,
            )

    def test_forwarding_system_requires_class(self):
        with pytest.raises(ValueError):
            HTMConfig(
                system=paper.CHATS, vsb_size=4, validation_interval=50
            )

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            HTMConfig(retries=-1)

    def test_pic_range_is_5_bits(self):
        htm = table2_config(paper.CHATS)
        assert htm.pic_bits == 5
        # One encoding (all-ones) is reserved for the unset PiC.
        assert htm.pic_limit == 31
        # PiC_init sits mid-range so chains can grow from either end.
        assert htm.pic_init == 15

    def test_replace_preserves_validation(self):
        htm = table2_config(paper.CHATS)
        smaller = htm.replace(vsb_size=2)
        assert smaller.vsb_size == 2
        assert smaller.retries == htm.retries
        with pytest.raises(ValueError):
            htm.replace(vsb_size=0)

    def test_tiny_pic_rejected(self):
        with pytest.raises(ValueError):
            HTMConfig(pic_bits=1)


class TestTable2:
    def test_all_systems_enumerated(self):
        systems = paper_systems()
        assert len(systems) == 6
        assert systems[0] is paper.BASELINE
        assert systems[-1] is paper.LEVC

    @pytest.mark.parametrize(
        "system,retries",
        [
            (paper.BASELINE, 6),
            (paper.NAIVE_RS, 2),
            (paper.CHATS, 32),
            (paper.POWER, 2),
            (paper.PCHATS, 1),
            (paper.LEVC, 64),
        ],
    )
    def test_table2_retries(self, system, retries):
        assert table2_config(system).retries == retries

    def test_levc_validates_continuously(self):
        assert table2_config(paper.LEVC).validation_interval == 0

    def test_forwarding_property(self):
        assert not paper.BASELINE.forwards
        assert not paper.POWER.forwards
        assert paper.CHATS.forwards
        assert paper.PCHATS.forwards
        assert paper.NAIVE_RS.forwards
        assert paper.LEVC.forwards

    def test_powered_property(self):
        assert paper.POWER.powered
        assert paper.PCHATS.powered
        assert not paper.CHATS.powered

    def test_configs_are_hashable(self):
        # The experiment runner caches on HTMConfig instances.
        assert hash(table2_config(paper.CHATS)) == hash(
            table2_config(paper.CHATS)
        )
