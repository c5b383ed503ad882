"""What the benchmark under perfbench/ needs from the library.

The benchmark wraps the functions named in `perfbench/tracer.py`'s
`LAYERS` and calls the closure API the way `perfbench/corpus.py` and
`perfbench/workloads.py` do.  A refactor that renames or reshapes any of
them breaks the traced runs; these tests catch it in the fast suite.  They
only read perfbench/: `LAYERS` is parsed, not imported.
"""

import ast
import importlib
import pathlib

from profinite_kit import closure, languages, semigroups

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_layers():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def test_every_traced_name_resolves():
    layers = traced_layers()
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"profinite_kit.{layer}")
        for name in names:
            if "." in name:
                # Tracer.install rewraps classmethods through their __func__
                cls_name, method = name.split(".")
                assert isinstance(vars(getattr(module, cls_name))[method], classmethod), name
            else:
                assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_old_morphism_name_is_the_one_type():
    assert closure.MonoidMorphism is languages.Morphism


def test_closure_calls_of_the_benchmark():
    res = languages.syntactic_semigroup(languages.parse_regex("(ab|ba)*(aa|b)*", "ab"), "ab")
    monoid = semigroups.monoid_of(res.semigroup)
    images = res.morphism.letter_image
    morphism = closure.MonoidMorphism(("a", "b"), monoid, images)
    assert isinstance(morphism.preimage_regex(monoid.identity), languages.Regex)
    kernel = closure.kernel_via_closure(monoid, morphism)
    assert kernel == closure.kernel_g(monoid).kernel
    ok, witness = closure.g_pointlike(monoid, [monoid.identity, next(iter(kernel))], morphism)
    assert ok and witness is not None
