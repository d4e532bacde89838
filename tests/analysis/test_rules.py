"""Per-rule positive/negative fixtures for the domain lint rules."""

from repro.analysis import Linter


def lint(source, *, module="repro.core.fixture", select=None):
    """Lint one in-memory module and return the findings."""
    linter = Linter(select=select)
    linter.lint_source(source, path=f"{module.replace('.', '/')}.py", module=module)
    return linter.finish().findings


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestFloatEquality:
    def test_flags_float_literal_comparison(self):
        findings = lint(
            "def f(x):\n"
            "    return x == 1.0\n",
            select=["RA001"],
        )
        assert rule_ids(findings) == ["RA001"]
        assert "tolerance" in findings[0].message

    def test_flags_float_call_and_math(self):
        findings = lint(
            "import math\n"
            "def f(x, y):\n"
            "    a = x != float(y)\n"
            "    b = x == math.sqrt(y)\n"
            "    return a, b\n",
            select=["RA001"],
        )
        assert rule_ids(findings) == ["RA001", "RA001"]

    def test_integer_comparison_is_fine(self):
        assert lint("def f(x):\n    return x == 1\n", select=["RA001"]) == []

    def test_tolerance_helpers_are_exempt(self):
        source = (
            "def is_close_to(a, b):\n"
            "    return abs(a - b) <= 1e-9 or a == 0.0\n"
        )
        assert lint(source, select=["RA001"]) == []

    def test_scoped_to_numeric_packages(self):
        source = "def f(x):\n    return x == 1.0\n"
        assert lint(source, module="repro.cardirect.fixture", select=["RA001"]) == []


ENGINE_OK = """
class GoodEngine(Engine):
    name = "good"

    def __init__(self, edge_cache_size=0, depth=2):
        self.depth = depth

    def clone_options(self):
        return {"depth": self.depth}

register_engine(GoodEngine.name, GoodEngine)
"""

ENGINE_DROPS_TUNABLE = """
class LossyEngine(Engine):
    name = "lossy"

    def __init__(self, depth=2):
        self.depth = depth

register_engine("lossy", LossyEngine)
"""

ENGINE_NEVER_REGISTERED = """
class GhostEngine(Engine):
    name = "ghost"

    def __init__(self):
        pass
"""


class TestEngineContract:
    def test_complete_lifecycle_passes(self):
        assert lint(ENGINE_OK, select=["RA002"]) == []

    def test_tunable_without_clone_options(self):
        findings = lint(ENGINE_DROPS_TUNABLE, select=["RA002"])
        assert rule_ids(findings) == ["RA002"]
        assert "clone_options" in findings[0].message
        assert "depth" in findings[0].message

    def test_unregistered_engine_is_reported_at_finalize(self):
        findings = lint(ENGINE_NEVER_REGISTERED, select=["RA002"])
        assert rule_ids(findings) == ["RA002"]
        assert "register_engine" in findings[0].message

    def test_registration_may_live_in_another_module(self):
        # SweepEngine is defined in sweep.py but registered from
        # engine.py under its literal name — the rule must see both.
        linter = Linter(select=["RA002"])
        linter.lint_source(
            ENGINE_NEVER_REGISTERED,
            path="repro/core/ghost.py",
            module="repro.core.ghost",
        )
        linter.lint_source(
            "def _factory(**options):\n"
            "    return GhostEngine(**options)\n"
            "register_engine('ghost', _factory)\n",
            path="repro/core/wiring.py",
            module="repro.core.wiring",
        )
        assert linter.finish().findings == []


class TestTelemetryName:
    def test_bad_metric_name(self):
        findings = lint(
            "registry.counter('engine_ops', 'help').inc()\n",
            select=["RA003"],
        )
        assert rule_ids(findings) == ["RA003"]
        assert "repro_" in findings[0].message

    def test_good_metric_name(self):
        source = "registry.counter('repro_engine_operations_total', 'help').inc()\n"
        assert lint(source, select=["RA003"]) == []

    def test_bad_span_name(self):
        findings = lint("with obs.span('Engine.Sweep'):\n    pass\n", select=["RA003"])
        assert rule_ids(findings) == ["RA003"]

    def test_good_span_name(self):
        assert lint("with obs.span('engine.sweep.relation'):\n    pass\n", select=["RA003"]) == []

    def test_fstring_span_fragments(self):
        findings = lint(
            "with obs.span(f'engine.{name}.Relation'):\n    pass\n",
            select=["RA003"],
        )
        assert rule_ids(findings) == ["RA003"]
        assert lint("with obs.span(f'engine.{name}.relation'):\n    pass\n", select=["RA003"]) == []

    def test_non_tracer_record_is_not_a_span(self):
        # EngineStats.record(operation) takes an operation name, not a
        # span name — only tracer-shaped receivers are checked.
        assert lint("self.stats.record('Relation Computed')\n", select=["RA003"]) == []

    def test_dynamic_metric_name_is_a_warning(self):
        findings = lint(
            "registry.counter(f'repro_{kind}_total', 'help').inc()\n",
            select=["RA003"],
        )
        assert rule_ids(findings) == ["RA003"]
        assert findings[0].severity == "warning"
        assert "built dynamically" in findings[0].message

    def test_concatenated_metric_name_is_a_warning(self):
        findings = lint(
            "registry.counter('repro_' + kind + '_total', 'help').inc()\n",
            select=["RA003"],
        )
        assert rule_ids(findings) == ["RA003"]
        assert findings[0].severity == "warning"

    def test_format_call_metric_name_is_a_warning(self):
        findings = lint(
            "registry.counter('repro_{}_total'.format(kind), 'help').inc()\n",
            select=["RA003"],
        )
        assert rule_ids(findings) == ["RA003"]
        assert findings[0].severity == "warning"

    def test_metric_name_via_plain_variable_is_fine(self):
        # A module-level constant passed through a name is checkable at
        # its definition site — not flagged at the call.
        assert lint(
            "registry.counter(METRIC_NAME, 'help').inc()\n",
            select=["RA003"],
        ) == []

    def test_dynamic_span_name_is_a_warning(self):
        findings = lint(
            "with obs.span('engine.' + operation):\n    pass\n",
            select=["RA003"],
        )
        assert rule_ids(findings) == ["RA003"]
        assert findings[0].severity == "warning"
        assert "span name" in findings[0].message


class TestMutableDefault:
    def test_flags_list_dict_set_defaults(self):
        findings = lint(
            "def f(a=[], b={}, c=set()):\n    return a, b, c\n",
            select=["RA004"],
        )
        assert rule_ids(findings) == ["RA004", "RA004", "RA004"]

    def test_none_default_is_fine(self):
        assert lint("def f(a=None, b=()):\n    return a, b\n", select=["RA004"]) == []


class TestPublicAnnotations:
    def test_unannotated_public_function(self):
        findings = lint("def area(region):\n    return region\n", select=["RA005"])
        assert rule_ids(findings) == ["RA005"]
        assert "region" in findings[0].message
        assert "return" in findings[0].message

    def test_fully_annotated_passes(self):
        assert lint("def area(region: object) -> float:\n    return 0.5\n", select=["RA005"]) == []

    def test_private_and_nested_are_exempt(self):
        source = (
            "def _helper(x):\n"
            "    return x\n"
            "def outer() -> int:\n"
            "    def kernel(row):\n"
            "        return row\n"
            "    return 1\n"
        )
        assert lint(source, select=["RA005"]) == []

    def test_self_is_exempt_on_methods(self):
        source = (
            "class Engine:\n"
            "    def relation(self, a: object) -> object:\n"
            "        return a\n"
        )
        assert lint(source, select=["RA005"]) == []

    def test_scoped_to_gated_packages(self):
        source = "def area(region):\n    return region\n"
        assert lint(source, module="repro.workloads.fixture", select=["RA005"]) == []


class TestExceptCounter:
    def test_bare_except(self):
        findings = lint(
            "try:\n    pass\nexcept:\n    pass\n",
            select=["RA006"],
        )
        assert rule_ids(findings) == ["RA006"]
        assert "bare except" in findings[0].message

    def test_swallowed_broad_except(self):
        findings = lint(
            "try:\n    pass\nexcept Exception:\n    pass\n",
            select=["RA006"],
        )
        assert rule_ids(findings) == ["RA006"]

    def test_reraise_is_fine(self):
        assert lint(
            "try:\n    pass\nexcept Exception:\n    raise\n",
            select=["RA006"],
        ) == []

    def test_counter_inc_is_fine(self):
        source = (
            "try:\n"
            "    pass\n"
            "except Exception:\n"
            "    registry.counter('repro_errors_total', 'h').inc()\n"
        )
        assert lint(source, select=["RA006"]) == []

    def test_errors_attribute_is_fine(self):
        source = (
            "try:\n"
            "    pass\n"
            "except Exception:\n"
            "    self.stats.observer_errors += 1\n"
        )
        assert lint(source, select=["RA006"]) == []

    def test_narrow_except_is_fine(self):
        assert lint(
            "try:\n    pass\nexcept ValueError:\n    pass\n",
            select=["RA006"],
        ) == []


class TestFindingShape:
    def test_str_is_compiler_style(self):
        findings = lint("def f(x):\n    return x == 1.0\n", select=["RA001"])
        text = str(findings[0])
        assert text.startswith("repro/core/fixture.py:2:")
        assert "RA001" in text and "float-eq" in text

    def test_as_dict_round_trips_fields(self):
        finding = lint("def f(x):\n    return x == 1.0\n", select=["RA001"])[0]
        payload = finding.as_dict()
        assert payload["rule"] == "RA001"
        assert payload["line"] == 2
        assert payload["path"] == "repro/core/fixture.py"
