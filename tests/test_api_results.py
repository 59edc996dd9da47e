"""ResultSet tests: tidy rows, aggregation, filtering, JSON/JSONL round-trip,
and one row per spec whatever the execution mode or shard count."""

import math

import pytest

from repro.api import ResultRow, ResultSet


def make_row(**overrides):
    base = dict(
        source="bursty",
        algorithm="fractional",
        backend="python",
        mode="compiled",
        problem="admission",
        trial=0,
        label="bursty x fractional",
        instance="bursty-0",
        online_cost=12.0,
        offline_cost=10.0,
        offline_kind="lp:optimal",
        ratio=1.2,
        bound=6.0,
        normalized_ratio=0.2,
        feasible=True,
        seed=7,
        extra={"num_augmentations": 3},
    )
    base.update(overrides)
    return ResultRow(**base)


@pytest.fixture
def results():
    return ResultSet(
        [
            make_row(trial=0, ratio=1.0),
            make_row(trial=1, ratio=3.0),
            make_row(algorithm="randomized", ratio=2.0, feasible=False),
            make_row(source="flash_crowd", algorithm="randomized", ratio=4.0),
        ]
    )


class TestCollection:
    def test_len_iter_getitem(self, results):
        assert len(results) == 4
        assert [row.trial for row in results][:2] == [0, 1]
        assert results[0].ratio == 1.0

    def test_filter_is_conjunctive(self, results):
        sub = results.filter(source="bursty", algorithm="randomized")
        assert len(sub) == 1
        assert sub[0].ratio == 2.0

    def test_ratios_and_stats(self, results):
        assert results.ratios() == [1.0, 3.0, 2.0, 4.0]
        assert results.ratio_stats().mean == pytest.approx(2.5)
        assert not results.all_feasible()
        assert results.filter(source="flash_crowd").all_feasible()

    def test_extend_chains(self, results):
        merged = ResultSet().extend(results).extend([make_row(trial=9)])
        assert len(merged) == 5


class TestAggregation:
    def test_aggregate_default_grouping(self, results):
        rows = results.aggregate()
        assert [(r["source"], r["algorithm"], r["trials"]) for r in rows] == [
            ("bursty", "fractional", 2),
            ("bursty", "randomized", 1),
            ("flash_crowd", "randomized", 1),
        ]
        first = rows[0]
        assert first["ratio_mean"] == pytest.approx(2.0)
        assert first["ratio_max"] == pytest.approx(3.0)
        assert first["online_mean"] == pytest.approx(12.0)
        assert first["feasible"] is True
        assert rows[1]["feasible"] is False

    def test_aggregate_by_backend(self, results):
        rows = results.aggregate(by=("backend",))
        assert len(rows) == 1
        assert rows[0]["trials"] == 4

    def test_tables_render(self, results):
        table = results.table()
        assert "ratio_mean" in table
        pivot = results.comparison_table()
        assert "ratio[fractional]" in pivot
        assert "ratio[randomized]" in pivot
        assert "flash_crowd" in pivot

    def test_comparison_table_fills_missing_cells_with_nan(self, results):
        pivot = results.comparison_table()
        # flash_crowd never ran fractional; the cell renders as NaN, not KeyError.
        assert "nan" in pivot.lower()


class TestRoundTrip:
    def test_json_round_trip(self, results, tmp_path):
        path = results.save(tmp_path / "results.json")
        loaded = ResultSet.load(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in results]

    def test_jsonl_round_trip(self, results, tmp_path):
        path = results.save(tmp_path / "results.jsonl")
        assert len(path.read_text().splitlines()) == len(results)
        loaded = ResultSet.load(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in results]

    def test_unknown_schema_rejected(self, results, tmp_path):
        path = results.save(tmp_path / "results.json")
        payload = path.read_text().replace('"schema": 1', '"schema": 99')
        path.write_text(payload)
        with pytest.raises(ValueError, match="unknown result schema 99"):
            ResultSet.load(path)

    def test_unknown_jsonl_schema_rejected_with_line_number(self, results, tmp_path):
        path = results.save(tmp_path / "results.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"schema": 1', '"schema": 99')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"results\.jsonl:2: unknown result schema 99"):
            ResultSet.load(path)

    def test_non_serialisable_extras_degrade_to_repr(self, tmp_path):
        row = make_row(extra={"callback": print})
        path = ResultSet([row]).save(tmp_path / "weird.json")
        loaded = ResultSet.load(path)
        assert "print" in loaded[0].extra["callback"]

    def test_live_record_not_serialised(self, tmp_path):
        row = make_row()
        row.record = object()  # stand-in for a CompetitiveRecord
        loaded = ResultSet.load(ResultSet([row]).save(tmp_path / "r.json"))
        assert loaded[0].record is None

    def test_empty_set_round_trips(self, tmp_path):
        for name in ("empty.json", "empty.jsonl"):
            loaded = ResultSet.load(ResultSet().save(tmp_path / name))
            assert len(loaded) == 0


class TestFacadeRows:
    def test_runner_rows_are_tidy_and_serialisable(self, tmp_path):
        from repro.api import Runner, RunSpec

        results = Runner().run(
            RunSpec(scenario="cheap_expensive", algorithm="fractional", trials=2, seed=3)
        )
        assert len(results) == 2
        assert [row.trial for row in results] == [0, 1]
        for row in results:
            assert row.source == "cheap_expensive"
            assert row.mode == "compiled"
            assert row.record is not None
            assert math.isfinite(row.ratio)
            assert row.extra["online_seconds"] >= 0
        loaded = ResultSet.load(results.save(tmp_path / "run.jsonl"))
        assert loaded.ratios() == results.ratios()

    def test_registry_factory_rows_are_labelled_with_the_registry_key(self):
        """Two factory-built algorithms aggregate into two groups, named by their keys."""
        from repro.api import RegistryAlgorithmFactory, Runner, RunSpec
        from repro.engine.config import EngineConfig

        specs = [
            RunSpec(
                scenario="cheap_expensive",
                algorithm=RegistryAlgorithmFactory(key, EngineConfig(), (), "admission"),
                mode="streaming", trials=1, seed=3,
            )
            for key in ("reject-when-full", "keep-expensive")
        ]
        results = Runner().run(specs)
        groups = results.aggregate()
        assert [(g["algorithm"], g["trials"]) for g in groups] == [
            ("reject-when-full", 1), ("keep-expensive", 1),
        ]
        assert [g["ratio_mean"] for g in groups] == pytest.approx([50.0, 1.0])
        assert results.filter(algorithm="keep-expensive").ratios() == pytest.approx([1.0])


def _row_numbers(**spec):
    from repro.api import Runner, RunSpec

    return [(row.online_cost, row.ratio, row.feasible) for row in Runner().run(RunSpec(**spec))]


def _admission_keys():
    from repro.engine.registry import ADMISSION_ALGORITHMS
    from repro.engine.runtime import ensure_builtin_registrations

    ensure_builtin_registrations()
    return ADMISSION_ALGORITHMS.keys()


class TestOneRowPerSpec:
    """Every admission key gives one row in every mode; shards give the unsharded row."""

    @pytest.mark.parametrize("scenario", ["bursty", "zipf_costs"])  # unit cost, weighted
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("key", _admission_keys())
    def test_every_key_gives_one_row_in_every_mode(self, key, backend, scenario):
        rows = [
            _row_numbers(scenario=scenario, algorithm=key, backend=backend, mode=mode, trials=2, seed=5)
            for mode in ("batch", "compiled", "streaming")
        ]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("scenario", ["bursty", "line_intervals"])  # one live shard each
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("scale_out", [{"shards": 2}, {"shards": 2, "workers": 2}])
    def test_sharded_fractional_gives_the_unsharded_row(self, scale_out, backend, scenario):
        spec = dict(scenario=scenario, algorithm="fractional", backend=backend, mode="streaming", seed=3)
        assert _row_numbers(**spec, **scale_out) == _row_numbers(**spec)
