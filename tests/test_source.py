"""Static checks over the package source: no unused imports, no runtime
dependency but numpy, no calls to the parameter-tree round trips, no walk
over the layers one by one, config validity decided in config.py alone, no
guard work in the cell and mogrifier steps, no transposed view read in their
forward steps, no tick read by position nor plan handed back by `recycle`,
and every function the benchmark's span tracer (perfbench/tracer.py) wraps
still exists."""

import ast
import importlib
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "rnnlab").glob("*.py") if p.name != "__init__.py")


def parsed(path):
    source = path.read_text(encoding="utf-8")
    return source.splitlines(), ast.parse(source)


def unused_imports(path):
    """Names a module imports and never reads, except on `# noqa: F401` lines."""
    lines, tree = parsed(path)
    imported = {}  # bound name -> line of its alias
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        name
        for name, line in imported.items()
        if name not in used and "# noqa: F401" not in lines[line - 1]
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_unused_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .ptree import unflatten_into, views\n"
        "import numpy as np\n"
        "from .ptree import flatten  # noqa: F401\n"
        "x = views\n"
    )
    assert unused_imports(module) == ["np", "unflatten_into"]


def third_party_imports(path):
    """Top-level modules a module imports that are neither numpy nor in the
    standard library; relative imports are the package's own."""
    _, tree = parsed(path)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    return sorted(
        top for top in {name.split(".")[0] for name in names}
        if top != "numpy" and top not in sys.stdlib_module_names
    )


@pytest.mark.parametrize("path", sorted(MODULES + [ROOT / "src" / "rnnlab" / "__init__.py"]),
                         ids=lambda p: p.name)
def test_no_runtime_dependency_but_numpy(path):
    assert third_party_imports(path) == []


def test_third_party_import_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os.path\n"
        "import numpy as np, scipy.linalg\n"
        "from torch import nn\n"
        "from . import cells\n"
        "from numpy.lib import stride_tricks\n"
        "from __future__ import annotations\n"
    )
    assert third_party_imports(module) == ["scipy", "torch"]


ROUND_TRIPS = {"accumulate", "unflatten_into", "zeros_like_tree"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_tree_round_trip_calls(path):
    _, tree = parsed(path)
    called = {
        getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert called & ROUND_TRIPS == set()


def per_layer_walks(path):
    """Lines that index the layer stack (`<x>.layers[...]`) or iterate over it
    (`for ... in <x>.layers`, also through enumerate, zip, list or reversed):
    the layers are one stack of (L, ...) arrays, not a list."""
    _, tree = parsed(path)

    def is_layers(node):
        return isinstance(node, ast.Attribute) and node.attr == "layers"

    def walks(node):
        wrapped = (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("enumerate", "zip", "list", "reversed")
            and any(walks(arg) for arg in node.args)
        )
        return is_layers(node) or wrapped

    return sorted(
        {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Subscript)
         and is_layers(node.value)}
        | {node.iter.lineno for node in ast.walk(tree)
           if isinstance(node, (ast.For, ast.comprehension)) and walks(node.iter)}
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_per_layer_walk(path):
    assert per_layer_walks(path) == []


def test_per_layer_walk_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "a = params.layers[0].mog\n"
        "for layer in params.layers:\n"
        "    pass\n"
        "b = [g for l, g in enumerate(grads.layers)]\n"
        "for p, g in zip(params.layers, grads.layers):\n"
        "    pass\n"
        "for l, (p, g) in enumerate(zip(params.layers, grads.layers)):\n"
        "    pass\n"
        "for l in range(config.layers):\n"
        "    c = params.layers.cell\n"
    )
    assert per_layer_walks(module) == [1, 2, 4, 5, 7]


def config_errors_from_value_errors(path):
    """Lines where an `except ... ValueError` handler raises a ConfigError."""
    _, tree = parsed(path)
    return sorted(
        node.lineno
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler)
        and handler.type is not None
        and "ValueError" in ast.unparse(handler.type)
        for node in ast.walk(handler)
        if isinstance(node, ast.Raise) and node.exc and "ConfigError" in ast.unparse(node.exc)
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "config.py"], ids=lambda p: p.name
)
def test_only_config_turns_value_errors_into_config_errors(path):
    assert config_errors_from_value_errors(path) == []


def test_cli_calls_no_validate():
    # config.section returns validated sections; the CLI decides nothing.
    _, tree = parsed(ROOT / "src" / "rnnlab" / "cli.py")
    called = {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert "validate" not in called


def test_value_error_conversion_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "try:\n"
        "    x = 1\n"
        "except (KeyError, ValueError) as err:\n"
        "    raise ConfigError(str(err)) from None\n"
        "try:\n"
        "    x = 2\n"
        "except ValueError:\n"
        "    x = None\n"
    )
    assert config_errors_from_value_errors(module) == [4]
    assert config_errors_from_value_errors(ROOT / "src" / "rnnlab" / "config.py") != []


def step_guard_work(path):
    """Lines where a step function (`*_forward`, `*_backward`) calls new_cache
    or a `.validate`, and lines that name DivergenceError: a step runs on a
    cache its caller cut, and the caller validates and checks finiteness."""
    _, tree = parsed(path)
    steps = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             and node.name.endswith(("_forward", "_backward"))]
    calls = {
        node.lineno
        for step in steps
        for node in ast.walk(step)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "new_cache"
             or getattr(node.func, "attr", None) in ("new_cache", "validate"))
    }
    names = {
        node.lineno
        for node in ast.walk(tree)
        if getattr(node, "id", None) == "DivergenceError"
        or getattr(node, "attr", None) == "DivergenceError"
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name == "DivergenceError" for alias in node.names))
    }
    return sorted(calls | names)


@pytest.mark.parametrize("name", ["cells.py", "mogrifier.py"])
def test_steps_do_no_guard_work(name):
    assert step_guard_work(ROOT / "src" / "rnnlab" / name) == []


def test_step_guard_work_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .numerics import DivergenceError, gemm\n"
        "def lstm_forward(p, state, cache=None):\n"
        "    p.validate()\n"
        "    cache = cache or new_cache('lstm', (1,), 2, 2)\n"
        "    return state\n"
        "def mogrify_backward(p, cache):\n"
        "    other = cells.new_cache('rlstm', (1,), 2, 2)\n"
        "    raise numerics.DivergenceError('x')\n"
        "def weight_grads(p, cache):\n"
        "    p.validate()\n"
        "    return new_cache('lstm', (1,), 2, 2)\n"
    )
    assert step_guard_work(module) == [1, 3, 4, 7, 8]


def transposed_reads_in_forward_steps(path):
    """Lines where a forward step (`*_forward`) reads `.mT`: a forward step
    multiplies by the contiguous copies of forward_weights, not by the
    strided transposed views of the parameters."""
    _, tree = parsed(path)
    return sorted(
        node.lineno
        for step in ast.walk(tree)
        if isinstance(step, ast.FunctionDef) and step.name.endswith("_forward")
        for node in ast.walk(step)
        if isinstance(node, ast.Attribute) and node.attr == "mT"
    )


@pytest.mark.parametrize("name", ["cells.py", "mogrifier.py"])
def test_forward_steps_read_no_transposed_view(name):
    assert transposed_reads_in_forward_steps(ROOT / "src" / "rnnlab" / name) == []


def test_transposed_read_in_a_forward_step_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def lstm_forward(weights, state, cache):\n"
        "    return gemm(cache.xh, weights[0].mT)\n"
        "def forward_weights(p):\n"
        "    return p.w.mT.copy()\n"
        "def mogrify_forward(p, cache):\n"
        "    factors = [w.mT for w in p.round_gates]\n"
        "def lstm_backward(p, cache):\n"
        "    return gemm(cache.gates.mT, p.w)\n"
    )
    assert transposed_reads_in_forward_steps(module) == [2, 6]


def positional_ticks_and_recycles(path):
    """Lines that subscript a `.ticks` (a tick's fields are read by name) or
    call a `.recycle`: a window's plan goes back to its lender from
    forward_window or from backward_window, which spends the cache."""
    _, tree = parsed(path)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Subscript) and getattr(node.value, "attr", None) == "ticks")
        or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "recycle")
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_positional_tick_or_recycle(path):
    assert positional_ticks_and_recycles(path) == []


def test_positional_tick_and_recycle_are_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "rows, m_state = cache.ticks[k][:2]\n"
        "for k, tick in enumerate(plan.ticks):\n"
        "    lo, recycle = tick.lo, tick.rows\n"
        "last = plan.ticks[-1].rows\n"
        "buffers.recycle(cache)\n"
        "ticks = plan.ticks\n"
        "recycle(ticks)\n"
    )
    assert positional_ticks_and_recycles(module) == [1, 4, 5]


def tracer_targets():
    _, tree = parsed(ROOT / "perfbench" / "tracer.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no TARGETS")


@pytest.mark.parametrize("module, name", tracer_targets())
def test_tracer_target_exists(module, name):
    assert callable(getattr(importlib.import_module(f"rnnlab.{module}"), name, None))


def test_tracer_bindings_are_the_ptree_originals():
    # The tracer's self-check reads these two bindings.
    from rnnlab import model, ptree, training

    assert model.accumulate is ptree.accumulate
    assert training.flatten is ptree.flatten


def dataclass_names(paths):
    """The names of the classes that the modules at `paths` declare with @dataclass."""
    return {
        node.name
        for path in paths
        for node in ast.walk(parsed(path)[1])
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    }


def per_tick_views(path, function="_run_steps"):
    """The `for k` loops of `function` (its tick loops), and the lines in
    them that build a view or a record per tick: an `.at(` call, map_arrays,
    replace, or the constructor of one of the package's dataclasses (or the
    module's own).  The views are bound once per window shape, in the plan."""
    _, tree = parsed(path)
    built = {"at", "map_arrays", "replace"} | dataclass_names(MODULES + [path])

    def over_k(target):
        first = target.elts[0] if isinstance(target, ast.Tuple) else target
        return isinstance(first, ast.Name) and first.id == "k"

    loops = [
        node
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == function
        for node in ast.walk(fn)
        if isinstance(node, ast.For) and over_k(node.target)
    ]
    lines = {
        call.lineno
        for loop in loops
        for call in ast.walk(loop)
        if isinstance(call, ast.Call)
        and (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) in built
    }
    return len(loops), sorted(lines)


def test_the_forward_tick_loop_builds_no_view():
    assert per_tick_views(ROOT / "src" / "rnnlab" / "model.py") == (1, [])


def test_a_view_built_per_tick_is_caught(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from dataclasses import dataclass, replace\n"
        "@dataclass\n"
        "class Tick:\n"
        "    rows: slice\n"
        "def _run_steps(plan, cache, stack, steps):\n"
        "    tick = Tick(slice(0, 1))\n"
        "    for k, (rows, step) in enumerate(plan.ticks):\n"
        "        view = cache.at((rows, k))\n"
        "        part = map_arrays(stack, lambda a: a[rows])\n"
        "        step(replace(tick, rows=rows), part, view)\n"
        "        state = CellState(view.c, view.xh)\n"
        "        for l in range(3):\n"
        "            Tick(rows)\n"
        "    for t in steps:\n"
        "        cache.at(t)\n"
        "    return tick\n"
    )
    assert per_tick_views(module) == (1, [8, 9, 10, 11, 13])
