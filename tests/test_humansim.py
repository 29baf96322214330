"""Human-matcher simulator substrate: tasks, traits, generation, cohorts."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.humansim.cohort import OAEI_N_MATCHERS, PO_N_MATCHERS, build_cohort
from repro.humansim.matcher_gen import (
    DECISION_COLUMNS,
    MOUSE_COLUMNS,
    Traits,
    generate_matcher,
    sample_traits,
)
from repro.humansim.schema_gen import (
    REGIONS,
    SCREEN_H,
    SCREEN_W,
    TASK_SPECS,
    make_task,
)


class TestSchemaGen:
    @pytest.mark.parametrize("kind", ["PO", "OAEI", "THALIA"])
    def test_dimensions_match_spec(self, kind):
        t = make_task(kind, seed=0)
        spec = TASK_SPECS[kind]
        assert (t.n_rows, t.n_cols) == (spec["n_rows"], spec["n_cols"])
        assert len(t.reference) == min(spec["n_ref"], spec["n_rows"])

    def test_po_paper_dimensions(self):
        """§IV-A: PO schemata have 142 and 46 attributes; OAEI 121/109."""
        po = make_task("PO")
        oa = make_task("OAEI")
        assert (po.n_rows, po.n_cols) == (142, 46)
        assert (oa.n_rows, oa.n_cols) == (121, 109)

    def test_reference_rows_distinct(self):
        t = make_task("PO", seed=1)
        rows = [r for (r, _) in t.reference]
        assert len(rows) == len(set(rows))

    def test_reference_in_bounds(self):
        t = make_task("OAEI", seed=2)
        for (r, c) in t.reference:
            assert 0 <= r < t.n_rows and 0 <= c < t.n_cols

    def test_difficulty_mix(self):
        t = make_task("PO", seed=3)
        d = np.array(list(t.reference.values()))
        assert (d <= 0.30).any() and (d >= 0.45).any()  # easy and complex pairs
        assert ((d >= 0.05) & (d <= 0.90)).all()

    def test_decoys_never_correct(self):
        t = make_task("PO", seed=4)
        ref = t.reference_pairs
        for c, rows in t.decoys.items():
            for r in rows:
                assert (int(r), c) not in ref

    def test_decoys_shared_confusers(self):
        """Decoy pools overlap across columns (global confuser rows)."""
        t = make_task("PO", seed=5)
        pools = [set(v.tolist()) for v in t.decoys.values()]
        overlaps = sum(
            1 for i in range(len(pools)) for j in range(i + 1, len(pools))
            if pools[i] & pools[j]
        )
        assert overlaps > len(pools)  # widespread sharing

    def test_deterministic(self):
        t1, t2 = make_task("PO", seed=7), make_task("PO", seed=7)
        assert t1.reference == t2.reference
        assert t1.row_names == t2.row_names

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            make_task("NOPE")

    def test_attribute_names_unique(self):
        t = make_task("PO", seed=8)
        assert len(set(t.row_names)) == t.n_rows
        assert len(set(t.col_names)) == t.n_cols

    def test_reference_df_long_format(self):
        t = make_task("THALIA", seed=0)
        df = t.reference_df()
        assert list(df.columns) == ["task", "row_i", "col_j", "difficulty"]
        assert len(df) == len(t.reference)

    def test_regions_tile_screen(self):
        for (x0, y0, x1, y1) in REGIONS.values():
            assert 0 <= x0 < x1 <= SCREEN_W
            assert 0 <= y0 < y1 <= SCREEN_H


class TestTraits:
    def test_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = sample_traits(rng)
            for v in [t.skill, t.coverage, t.metacog, t.deliberate]:
                assert 0 < v < 1
            assert -0.5 <= t.bias <= 0.75

    def test_shift_degrades(self):
        rng1, rng2 = np.random.default_rng(1), np.random.default_rng(1)
        base = [sample_traits(rng1).skill for _ in range(200)]
        shifted = [sample_traits(rng2, shift=-0.1).skill for _ in range(200)]
        assert np.mean(shifted) < np.mean(base)

    def test_skill_metacog_correlated(self):
        rng = np.random.default_rng(2)
        ts = [sample_traits(rng) for _ in range(300)]
        r = np.corrcoef([t.skill for t in ts], [t.metacog for t in ts])[0, 1]
        assert r > 0.3


class TestGenerateMatcher:
    @pytest.fixture(scope="class")
    def one(self):
        task = make_task("PO", seed=0)
        traits = Traits(skill=0.7, coverage=0.5, metacog=0.7, bias=0.1, deliberate=0.5)
        return generate_matcher("m0", task, traits, seed=42), task

    def test_schemas(self, one):
        (ddf, mdf), _ = one
        assert list(ddf.columns) == DECISION_COLUMNS
        assert list(mdf.columns) == MOUSE_COLUMNS

    def test_time_monotone(self, one):
        (ddf, _), _ = one
        assert ddf["t"].is_monotonic_increasing

    def test_confidence_range(self, one):
        (ddf, _), _ = one
        assert ddf["conf"].between(0.05, 1.0).all()

    def test_pairs_in_bounds(self, one):
        (ddf, _), task = one
        assert ddf["row_i"].between(0, task.n_rows - 1).all()
        assert ddf["col_j"].between(0, task.n_cols - 1).all()

    def test_mouse_on_screen(self, one):
        (_, mdf), _ = one
        assert mdf["x"].between(0, SCREEN_W).all()
        assert mdf["y"].between(0, SCREEN_H).all()
        assert set(mdf["etype"]) <= {"m", "l", "r", "s"}

    def test_one_click_per_decision(self, one):
        (ddf, mdf), _ = one
        assert (mdf["etype"] == "l").sum() == len(ddf)

    def test_n_decisions_override(self):
        task = make_task("THALIA", seed=0)
        traits = Traits(0.5, 0.5, 0.5, 0.0, 0.5)
        ddf, _ = generate_matcher("m", task, traits, seed=0, n_decisions=9)
        assert len(ddf) == 9

    def test_deterministic(self):
        task = make_task("PO", seed=0)
        traits = Traits(0.5, 0.5, 0.5, 0.0, 0.5)
        d1, m1 = generate_matcher("m", task, traits, seed=3)
        d2, m2 = generate_matcher("m", task, traits, seed=3)
        pd.testing.assert_frame_equal(d1, d2)
        pd.testing.assert_frame_equal(m1, m2)

    def test_skill_drives_correctness(self):
        task = make_task("PO", seed=0)
        ref = task.reference_pairs
        accs = {}
        for name, skill in [("lo", 0.1), ("hi", 0.9)]:
            traits = Traits(skill, 0.5, 0.5, 0.0, 0.5)
            ddf, _ = generate_matcher("m", task, traits, seed=11)
            last = ddf.groupby(["row_i", "col_j"]).tail(1)
            accs[name] = np.mean([(r, c) in ref for r, c in zip(last.row_i, last.col_j)])
        assert accs["hi"] > accs["lo"] + 0.3

    def test_coverage_drives_decision_count(self):
        task = make_task("PO", seed=0)
        n = {}
        for name, cov in [("lo", 0.1), ("hi", 0.9)]:
            ddf, _ = generate_matcher("m", task, Traits(0.5, cov, 0.5, 0.0, 0.5), seed=12)
            n[name] = len(ddf)
        assert n["hi"] > 2 * n["lo"]

    def test_metacog_drives_confidence_coupling(self):
        task = make_task("PO", seed=0)
        ref = task.reference_pairs
        gaps = {}
        for name, m in [("lo", 0.05), ("hi", 0.95)]:
            ddf, _ = generate_matcher("m", task, Traits(0.5, 0.7, m, 0.0, 0.5), seed=13)
            correct = np.array([(r, c) in ref for r, c in zip(ddf.row_i, ddf.col_j)])
            gaps[name] = ddf.conf[correct].mean() - ddf.conf[~correct].mean()
        assert gaps["hi"] > gaps["lo"] + 0.2


class TestCohort:
    @pytest.fixture(scope="class")
    def small(self):
        return build_cohort("PO", n_matchers=8, seed=0)

    def test_default_sizes(self):
        assert PO_N_MATCHERS == 106 and OAEI_N_MATCHERS == 34

    def test_members(self, small):
        assert len(small.matchers) == 8
        assert small.decisions["matcher_id"].nunique() == 8
        assert small.warmup_decisions["matcher_id"].nunique() == 8

    def test_warmup_is_thalia(self, small):
        assert (small.warmup_decisions["task"] == "THALIA").all()
        assert small.warmup_task.name == "THALIA"

    def test_personal_info_columns(self, small):
        for col in ["gender", "age", "psychometric", "english", "domain_knowledge"]:
            assert col in small.matchers.columns

    def test_psychometric_plausible(self, small):
        assert small.matchers["psychometric"].between(400, 800).all()

    def test_deterministic(self):
        c1 = build_cohort("PO", n_matchers=4, seed=9)
        c2 = build_cohort("PO", n_matchers=4, seed=9)
        pd.testing.assert_frame_equal(c1.decisions, c2.decisions)
        pd.testing.assert_frame_equal(c1.mouse, c2.mouse)

    def test_deterministic_across_processes(self, tmp_path):
        """One seed gives one cohort whatever the process's string-hash
        seed (``PYTHONHASHSEED``)."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import sys; from repro.humansim import build_cohort; "
            "c = build_cohort('PO', n_matchers=3, seed=9); "
            "c.decisions.to_pickle(sys.argv[1] + '.dec'); "
            "c.mouse.to_pickle(sys.argv[1] + '.mouse')"
        )
        for hs in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hs, "PYTHONPATH": src}
            subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / hs)], env=env, check=True
            )
        for part in ("dec", "mouse"):
            pd.testing.assert_frame_equal(
                pd.read_pickle(tmp_path / f"1.{part}"), pd.read_pickle(tmp_path / f"2.{part}")
            )

    def test_bad_kind_raises(self):
        with pytest.raises(ValueError):
            build_cohort("XXX")

    def test_oaei_traits_shifted(self):
        po = build_cohort("PO", n_matchers=40, seed=5)
        oa = build_cohort("OAEI", n_matchers=40, seed=5)
        assert oa.matchers["trait_skill"].mean() < po.matchers["trait_skill"].mean()

    def test_full_cohort_decision_volume(self):
        """Paper scale: 7716 decisions over 140 matchers (~55 each).
        The simulator targets the same order of magnitude."""
        c = build_cohort("PO", seed=0)
        per = len(c.decisions) / len(c.matchers)
        assert 35 <= per <= 75
