"""Per-layer tracing by wrapping nestrix's public functions at run time.

``Tracer.install`` replaces each function named in ``LAYERS`` with a
wrapper in every nestrix module namespace that binds it (names brought in
by ``from .exact import ...`` included) and on its class for methods.
While ``Tracer.active`` is true a wrapper opens a span on a stack, so each
layer's self time is its span's duration minus the part its child spans
cover; when it is false the wrapper calls straight through.
``Tracer.uninstall`` puts every original object back.  No file under
``src/`` is edited.
"""

from __future__ import annotations

import sys
import time

# Size hooks add counts derived from a wrapped call's arguments and result.


def _smith_cells(counts, args, result):
    counts["exact.smith.cells"] += args[0].rows * args[0].cols


def _subdivide_faces(counts, args, result):
    counts["simplicial.subdivide.faces_out"] += len(result.complex.faces)


def _chain_complex_cells(counts, args, result):
    counts["simplicial.chain_complex.cells"] += sum(
        m.rows * m.cols for m in result.boundaries.values())


def _opens(counts, args, result):
    counts["finite_space.opens"] += len(result.opens)


def _verdict(counts, args, result):
    counts[f"regions.verdict.{result.value}"] += 1


def _validation(counts, args, result):
    counts["covering.validate.faces"] += len(args[0].assignments)
    counts["covering.attempts"] += 1
    counts["covering.valid_attempts"] += int(result.passed)


HOM_FUNCTIONS = ("hom_is_well_defined", "hom_kernel", "hom_cokernel",
                 "hom_is_surjective", "hom_is_injective", "hom_preimage")

# (module, attribute, layer name, size hook)
LAYERS = [
    ("exact", "smith_normal_form", "exact.smith", _smith_cells),
    ("exact", "solve_exact", "exact.solve", None),
    ("exact", "solve_boundary", "exact.solve", None),
    ("exact", "IntMatrix.apply", "exact.apply", None),
    ("exact", "homology", "exact.cohomology", None),
    ("exact", "cohomology", "exact.cohomology", None),
    ("exact", "presented_cohomology_at", "exact.cohomology", None),
    *[("exact", name, "exact.hom", None) for name in HOM_FUNCTIONS],
    ("simplicial", "subdivide", "simplicial.subdivide", _subdivide_faces),
    ("simplicial", "t_complex", "simplicial.t_complex", None),
    ("simplicial", "prism_complex", "simplicial.prism", None),
    ("simplicial", "OrderedSimplicialComplex.chain_complex",
     "simplicial.chain_complex", _chain_complex_cells),
    ("finite_space", "FiniteSpace.from_basis", "finite_space.build", _opens),
    ("finite_space", "FiniteSpace.components", "finite_space.components",
     None),
    ("regions", "region_contains", "regions.contains", _verdict),
    ("regions", "simplex_in_region", "regions.simplex_in_region", _verdict),
    ("nesting", "NestingOracle.region", "nesting.region", None),
    ("nesting", "in_c_eta", "nesting.in_c_eta", None),
    ("covering", "validate_covering", "covering.validate", _validation),
    ("covering", "find_covering", "covering.find", None),
    ("covering", "mapping_cylinder", "covering.cylinder", None),
    ("covering", "cylinder_covering", "covering.cylinder", None),
    ("covering", "small_chain_projection", "covering.projection", None),
    ("covering", "boundary_in_small_chains", "covering.projection", None),
    ("symbolic", "FormalChain.boundary", "symbolic.boundary", None),
    ("symbolic", "FormalChain.push", "symbolic.push", None),
    ("symbolic", "chain_in_c_eta", "symbolic.chain_in_c_eta", None),
    ("sheaves", "Presheaf.group", "sheaves.group", None),
    ("sheaves", "Presheaf.restriction", "sheaves.restriction", None),
    ("sheaves", "sheafify", "sheaves.sheafify", None),
    ("sheaves", "sheaf_cohomology_nerve", "sheaves.nerve", None),
    ("sheaves", "sheaf_cohomology_godement", "sheaves.godement", None),
    ("sheaves", "cech_cohomology", "sheaves.cech", None),
    ("sheaves", "compare_theorem", "sheaves.compare", None),
]

COUNTERS = ("exact.smith.cells", "simplicial.subdivide.faces_out",
            "simplicial.chain_complex.cells", "finite_space.opens",
            "regions.verdict.true", "regions.verdict.false",
            "regions.verdict.unknown", "covering.validate.faces",
            "covering.attempts", "covering.valid_attempts")

WRAPPED = "__bench_wrapped__"


class Tracer:
    def __init__(self):
        self.active = False
        self._installed = []   # (owner, attribute, original object)
        self.reset()

    def reset(self):
        names = {layer for _, _, layer, _ in LAYERS}
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.total_s = dict.fromkeys(names, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []       # [start, time covered by children]
        self._depth = dict.fromkeys(names, 0)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, layer, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            tracer._depth[layer] += 1
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                elapsed = time.perf_counter() - frame[0]
                tracer.self_s[layer] += elapsed - frame[1]
                tracer._depth[layer] -= 1
                if not tracer._depth[layer]:
                    tracer.total_s[layer] += elapsed
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        setattr(wrapper, WRAPPED, fn)
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = nestrix_modules()
        for mod_name, attr, layer, hook in LAYERS:
            module = sys.modules[f"nestrix.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    replacement = classmethod(
                        self._wrap(original.__func__, layer, hook))
                else:
                    replacement = self._wrap(original, layer, hook)
                self._installed.append((cls, meth, original))
                setattr(cls, meth, replacement)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, layer, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        self.active = False
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)


def nestrix_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "nestrix" or name.startswith("nestrix."))
            and m is not None]


def leftover_wrappers():
    """Names in nestrix modules and classes still bound to a wrapper."""
    found = []
    for mod in nestrix_modules():
        for name, value in vars(mod).items():
            if hasattr(value, WRAPPED):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if isinstance(member, classmethod):
                        member = member.__func__
                    if hasattr(member, WRAPPED):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
