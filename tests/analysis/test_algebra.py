"""The D* algebra verifier: passing runs and corrupted-table detection.

The negative tests run against deliberately corrupted operator tables —
a dropped inverse disjunct, a dropped/invented composition member — and
assert the verifier names the broken entry, which is exactly the
regression a hand-edited or badly serialised table would introduce.
Small relation subsets keep each run well under a second; the full
511-relation sweep is exercised by `cardirect analyze --algebra` in CI.
"""

from repro.analysis import (
    AlgebraReport,
    default_coherence_pairs,
    verify_algebra,
)
from repro.core.relation import CardinalDirection, DisjunctiveCD
from repro.core.tiles import Tile
from repro.reasoning.composition import compose
from repro.reasoning.inverse import inverse

N = CardinalDirection(Tile.N)
S = CardinalDirection(Tile.S)
B = CardinalDirection(Tile.B)
SINGLES = [CardinalDirection(tile) for tile in Tile]


def check_named(report, name):
    return next(check for check in report.checks if check.name == name)


class TestPassingRun:
    def test_single_tile_relations_pass_every_check(self):
        report = verify_algebra(relations=SINGLES, coherence_pairs=[(N, S)])
        assert report.ok
        assert report.violation_count == 0
        names = [check.name for check in report.checks]
        assert names == [
            "inverse-closure",
            "involution",
            "identity",
            "coherence",
            "composition-closure",
        ]
        assert all(check.checked > 0 for check in report.checks)

    def test_default_coherence_pairs_are_the_81_generators(self):
        pairs = default_coherence_pairs()
        assert len(pairs) == 81
        assert all(len(r1.tiles) == 1 and len(r2.tiles) == 1 for r1, r2 in pairs)

    def test_render_and_as_dict(self):
        report = verify_algebra(relations=[N], coherence_pairs=[])
        text = report.render()
        assert "algebra: PASS" in text
        payload = report.as_dict()
        assert payload["ok"] is True
        assert payload["violations"] == 0
        assert {check["name"] for check in payload["checks"]} >= {
            "involution",
            "identity",
        }


class TestCorruptedInverseTable:
    def test_dropped_disjunct_breaks_involution(self):
        def corrupted(relation):
            result = inverse(relation)
            if relation == S:
                return DisjunctiveCD([m for m in result if m != N])
            return result

        report = verify_algebra(
            relations=[N], coherence_pairs=[], inverse_of=corrupted
        )
        assert not report.ok
        involution = check_named(report, "involution")
        assert involution.violation_count == 1
        message = involution.violations[0].message
        assert "S ∈ inv(N)" in message and "N ∉ inv(S)" in message

    def test_empty_inverse_breaks_closure(self):
        report = verify_algebra(
            relations=[N],
            coherence_pairs=[],
            inverse_of=lambda relation: DisjunctiveCD(()),
        )
        closure = check_named(report, "inverse-closure")
        assert closure.violation_count >= 1
        assert "empty" in closure.violations[0].message

    def test_raising_inverse_is_a_violation_not_a_crash(self):
        def exploding(relation):
            raise RuntimeError("corrupt row")

        report = verify_algebra(
            relations=[N], coherence_pairs=[], inverse_of=exploding
        )
        assert not report.ok
        closure = check_named(report, "inverse-closure")
        assert "raised" in closure.violations[0].message


class TestCorruptedCompositionTable:
    def test_dropped_member_breaks_the_identity_law(self):
        def corrupted(left, right):
            result = compose(left, right)
            if left == S and right == B:
                return DisjunctiveCD([m for m in result if m != S])
            return result

        report = verify_algebra(
            relations=[S], coherence_pairs=[], compose_of=corrupted
        )
        assert not report.ok
        identity = check_named(report, "identity")
        assert identity.violation_count == 1
        assert "S ∉ S ∘ B" in identity.violations[0].message

    def test_invented_member_breaks_coherence(self):
        def corrupted(left, right):
            result = compose(left, right)
            if left == N and right == N:
                return DisjunctiveCD(list(result) + [S])
            return result

        report = verify_algebra(
            relations=[], coherence_pairs=[(N, N)], compose_of=corrupted
        )
        assert not report.ok
        coherence = check_named(report, "coherence")
        assert coherence.violation_count == 1
        assert "S ∈ N ∘ N" in coherence.violations[0].message

    def test_empty_composition_breaks_closure(self):
        report = verify_algebra(
            relations=[N],
            coherence_pairs=[],
            compose_of=lambda left, right: DisjunctiveCD(()),
        )
        closure = check_named(report, "composition-closure")
        assert closure.violation_count >= 1
        assert "empty" in closure.violations[0].message


class TestReportBookkeeping:
    def test_violations_are_capped_but_counted(self):
        from repro.analysis.algebra import MAX_RECORDED_VIOLATIONS, AlgebraCheck

        check = AlgebraCheck("demo", "cap test")
        for index in range(MAX_RECORDED_VIOLATIONS + 10):
            check.record(f"violation {index}")
        assert check.violation_count == MAX_RECORDED_VIOLATIONS + 10
        assert len(check.violations) == MAX_RECORDED_VIOLATIONS
        report = AlgebraReport(checks=[check])
        assert "and 10 more" in report.render()
        assert "algebra: FAIL" in report.render()

    def test_failing_report_renders_fail(self):
        report = verify_algebra(
            relations=[N],
            coherence_pairs=[],
            inverse_of=lambda relation: DisjunctiveCD(()),
        )
        assert "algebra: FAIL" in report.render()
        assert report.as_dict()["ok"] is False
