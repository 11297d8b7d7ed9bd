"""Complexity accounting: MAC and parameter counts per layer."""

import pytest

from visarch import build, complexity_report, layer_plan, preset

# frozen totals at native resolution; regression guard for the counting rules
EXPECTED = {
    "deit_s": (4_598_882_304, 22_050_664),
    "net1": (4_574_026_752, 22_049_896),
    "net2": (4_768_290_816, 23_906_504),
    "net3": (4_787_859_456, 39_545_672),
    "net4": (4_787_859_456, 39_545_672),
    "net5": (4_771_775_892, 39_458_256),
    "net6": (4_771_775_892, 39_194_832),
    "net7": (4_849_009_986, 40_902_175),
    "resnet50_shape": (4_089_184_256, 25_557_032),
    "visformer_s": (4_879_380_480, 40_266_440),
    "visformer_ti": (1_267_980_288, 10_344_792),
    "visformer_v2_s": (4_266_425_344, 23_212_568),
    "visformer_v2_ti": (1_323_939_072, 9_495_199),
}


class TestTotals:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_frozen_totals(self, name):
        macs, params = EXPECTED[name]
        rep = complexity_report(preset(name))
        assert (rep.total_macs, rep.total_params) == (macs, params)

    def test_rows_sum_to_totals(self):
        rep = complexity_report(preset("visformer_s"))
        assert sum(m for _, m, _ in rep.rows) == rep.total_macs
        assert sum(n for _, _, n in rep.rows) == rep.total_params

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_counts_match_built_parameters(self, name):
        config = preset(f"{name}-micro")
        model = build(config, seed=0)
        assert complexity_report(config).total_params == sum(t.data.size for _, t in model.params.items())

    def test_counts_match_full_build(self):
        config = preset("visformer_s")
        model = build(config, seed=0)
        assert complexity_report(config).total_params == sum(t.data.size for _, t in model.params.items())


class TestRules:
    def test_norms_and_positions_cost_nothing(self):
        rep = complexity_report(preset("visformer_s"))
        for path, macs, params in rep.rows:
            if path.endswith("norm") or path.endswith(".pos") or path == "s0.pos":
                assert macs == 0
                assert params > 0

    def test_relative_tables_cost_nothing(self):
        rep = complexity_report(preset("visformer_v2_s"))
        relpos = [(m, n) for p, m, n in rep.rows if p.endswith(".relpos")]
        assert relpos
        for macs, params in relpos:
            assert macs == 0
            assert params > 0

    def test_head_is_one_matmul(self):
        rep = complexity_report(preset("deit_s"))
        assert ("head.fc", 384 * 1000, 384 * 1000 + 1000) in rep.rows

    def test_attention_core_scales_quartically(self):
        # doubling resolution quadruples tokens: the score/apply matmuls
        # grow 16x while convolutions only grow 4x
        lo = complexity_report(preset("visformer_s"), resolution=224)
        hi = complexity_report(preset("visformer_s"), resolution=448)

        def core(rep):
            return sum(m for p, m, _ in rep.rows if p.endswith((".attn.scores", ".attn.apply")))

        assert core(lo) > 0
        assert core(hi) == 16 * core(lo)
        assert 4 * lo.total_macs < hi.total_macs < 16 * lo.total_macs

    def test_resolution_override_flows_to_shapes(self):
        assert layer_plan(preset("visformer_s"), resolution=448)[0].in_shape == (3, 448, 448)
        assert complexity_report(preset("visformer_s"), resolution=448).resolution == 448

    def test_odd_stage_resolutions_count_the_shapes_the_forward_runs(self):
        # at 200 the strided stages see 25x25 and 13x13 maps: 3x3 pad-1 stride-2
        # convs give 13x13 and 7x7, not 25 // 2 and 13 // 2
        out = {e.prefix: e.out_shape for e in layer_plan(preset("resnet50_shape"), 200)}
        assert (out["s2.b0"][1], out["s3.b0"][1]) == (13, 7)
        assert complexity_report(preset("resnet50_shape"), 200).total_macs == 3_498_822_656

    def test_table_footers(self):
        text = complexity_report(preset("visformer_ti")).table()
        assert "total MACs ≈ 1.27G" in text
        assert "total params ≈ 10.3M" in text
