"""Record types: validation, defaults, equality and repr (``LevelGeometry`` is
tested in test_dimension.py)."""

import pickle
import re
from fractions import Fraction

import pytest

from cnl.equidist import AAPCertificate, DiscrepancyReport, DiscrepancyRow
from cnl.refpair import RefPairReport
from cnl.sequences import ChainSpec, ConstantRule, GeometricRule, RuleError
from cnl.theta import CandidateSet, ScheduleError, SelectionPolicy


class TestSelectionPolicy:
    @pytest.mark.parametrize(
        "kind, seed, message",
        [
            ("bogus", None, "unknown policy kind 'bogus'"),
            ("seeded", None, "seeded policy needs a 64-bit seed"),
            ("seeded", -1, "seeded policy needs a 64-bit seed"),
            ("seeded", 1 << 64, "seeded policy needs a 64-bit seed"),
        ],
    )
    def test_rejections(self, kind, seed, message):
        with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
            SelectionPolicy(kind, seed)
        with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
            SelectionPolicy(kind=kind, seed=seed)

    def test_fields_equality_and_repr(self):
        policy = SelectionPolicy("seeded", seed=(1 << 64) - 1)
        assert (policy.kind, policy.seed) == ("seeded", (1 << 64) - 1)
        assert SelectionPolicy("min") == SelectionPolicy(kind="min", seed=None)
        assert SelectionPolicy("min") != SelectionPolicy("max")
        assert repr(SelectionPolicy("seeded", 7)) == "SelectionPolicy(kind='seeded', seed=7)"
        assert pickle.loads(pickle.dumps(policy)) == policy
        with pytest.raises(AttributeError):
            policy.seed = 1

    def test_describe(self):
        assert SelectionPolicy("mid").describe() == "mid"
        assert SelectionPolicy("seeded", 3).describe() == "seeded:3"


class TestCandidateSet:
    def test_count_and_membership(self):
        cand = CandidateSet(5, 9)
        assert cand.count == 5
        assert [v for v in range(3, 12) if v in cand] == [5, 6, 7, 8, 9]
        assert CandidateSet(4, 4).count == 1 and 4 in CandidateSet(4, 4)

    def test_equality_and_repr(self):
        assert CandidateSet(1, 3) == CandidateSet(f_min=1, f_max=3)
        assert repr(CandidateSet(1, 3)) == "CandidateSet(f_min=1, f_max=3)"


class TestChainSpec:
    @pytest.mark.parametrize(
        "depth, message",
        [(0, "chain depth must be >= 1, got 0"), ("2", "chain depth must be an integer, got '2'")],
    )
    def test_rejections(self, depth, message):
        with pytest.raises(RuleError, match=f"^{re.escape(message)}$"):
            ChainSpec(base=GeometricRule(8, 2), s=ConstantRule(2), depth=depth)

    def test_each_spec_has_its_own_steps(self):
        a = ChainSpec(GeometricRule(8, 2), ConstantRule(2), 3)
        b = ChainSpec(GeometricRule(8, 2), ConstantRule(3), 3)
        assert (a.big_s(3), b.big_s(3)) == (4, 9)


class TestDefaults:
    def test_discrepancy_reports_never_share_rows(self):
        a, b = DiscrepancyReport(), DiscrepancyReport(header_note="b")
        a.rows.append(DiscrepancyRow(n=1, dstar=Fraction(1, 2)))
        assert b.rows == [] and a.header_note == "" and b.header_note == "b"

    def test_refpair_reports_never_share_lists(self):
        a, b = RefPairReport(), RefPairReport()
        a.record("check", True, "detail")
        a.note("text")
        assert (b.checks, b.lines) == ([], [])
        assert a.checks == [("check", True)] and a.ok and b.ok

    def test_record_defaults(self):
        row = DiscrepancyRow(n=2, dstar=Fraction(1, 4))
        assert (row.bound, row.certificate, row.proxy, row.envelope) == (None, "", None, None)
        cert = AAPCertificate(delta=Fraction(0), epsilon=Fraction(1), eta=None, accepted=False)
        assert (cert.failing_condition, cert.n_points) == (None, 0)
