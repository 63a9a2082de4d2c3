"""Instance file format: one JSON document with categories, functors, modules,
and ideals.  Rationals are "p/q" strings, composition tensors are sparse
[g_index, f_index, coeff_vector] triples.  Every serialization round-trips, so
command output can be fed back in as fixture input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .category import LinearCategory, Morphism
from .errors import ParseError
from .functors import LinearFunctor
from .linalg import RationalMatrix, Scalar, frac
from .modules import Module


def rat_to_str(x: Scalar) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, where: str):
    """The value, if it has the JSON type `kind`; else a ParseError naming where."""
    if not isinstance(value, kind):
        raise ParseError(f"{where}: need {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def _section(doc: dict, key: str, where: str = "") -> dict:
    """An optional JSON object field, {} when absent."""
    return _typed(doc.get(key) or {}, dict, f"{where}.{key}".lstrip("."))


def str_to_rat(s, where: str) -> Scalar:
    """A rational from a "p/q" string or a JSON number; true and false are not numbers."""
    try:
        return frac(s if type(s) is int else str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"{where}: bad rational {s!r} ({e})")


def _vec_out(v) -> list[str]:
    return [rat_to_str(x) for x in v]


def _vec_in(v, where: str) -> list[Scalar]:
    if not isinstance(v, list):
        raise ParseError(f"{where}: expected a list of rationals")
    return [str_to_rat(x, where) for x in v]


def _matrix_out(m: RationalMatrix) -> list[list[str]]:
    return [[rat_to_str(x) for x in row] for row in m.data]


def _matrix_in(rows, rows_n: int, cols_n: int, where: str) -> RationalMatrix:
    if not isinstance(rows, list) or len(rows) != rows_n:
        raise ParseError(f"{where}: expected {rows_n} matrix rows")
    data = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != cols_n:
            raise ParseError(f"{where}: row {i} must have {cols_n} entries")
        data.append([str_to_rat(x, f"{where}[{i}]") for x in row])
    return RationalMatrix(data, rows_n, cols_n)


# ---------------------------------------------------------------------------
# categories
# ---------------------------------------------------------------------------

def serialize_category(c: LinearCategory) -> dict:
    hom: dict[str, dict] = {}
    for (v, u), d in sorted(c._hom.items()):
        hom.setdefault(v, {})[u] = {"dim": d, "labels": list(c.basis_labels[(v, u)])}
    comp: dict[str, dict] = {}
    for (w, v, u), tab in sorted(c.cells.items()):  # the nonzero cells, dense
        comp.setdefault(w, {}).setdefault(v, {})[u] = [
            [gi, fi, _vec_out(c.comp_coords(w, v, u, gi, fi))] for gi, fi in sorted(tab)
        ]
    return {
        "objects": list(c.objects),
        "hom": hom,
        "comp": comp,
        "id": {u: _vec_out(c.identities[u]) for u in c.objects},
    }


def parse_category(doc, where: str) -> LinearCategory:
    _typed(doc, dict, where)
    objects = _typed(doc.get("objects"), list, f"{where}.objects")
    if not objects:
        raise ParseError(f"{where}.objects: need a nonempty list")
    for k, u in enumerate(objects):
        _typed(u, str, f"{where}.objects[{k}]")
    hom_dims: dict[tuple[str, str], int] = {}
    labels: dict[tuple[str, str], list[str]] = {}
    for v, row in _section(doc, "hom", where).items():
        for u, spec in _typed(row, dict, f"{where}.hom[{v}]").items():
            if v not in objects or u not in objects:
                raise ParseError(f"{where}.hom: unknown object in pair ({v},{u})")
            d = _typed(spec, dict, f"{where}.hom[{v}][{u}]").get("dim")
            if type(d) is not int or d < 0:  # a JSON true or false is no dim
                raise ParseError(f"{where}.hom[{v}][{u}].dim: need a nonnegative int")
            hom_dims[(v, u)] = d
            if "labels" in spec:
                labels[(v, u)] = _typed(spec["labels"], list, f"{where}.hom[{v}][{u}].labels")
    comp: dict[tuple[str, str, str], dict[tuple[int, int], list[Scalar]]] = {}
    for w, lvl1 in _section(doc, "comp", where).items():
        for v, lvl2 in _typed(lvl1, dict, f"{where}.comp[{w}]").items():
            for u, triples in _typed(lvl2, dict, f"{where}.comp[{w}][{v}]").items():
                dg = hom_dims.get((v, u), 0)
                df = hom_dims.get((w, v), 0)
                dr = hom_dims.get((w, u), 0)
                tab = {}
                if not isinstance(triples, list):
                    raise ParseError(f"{where}.comp[{w}][{v}][{u}]: need a triple list")
                for k, trip in enumerate(triples):
                    loc = f"{where}.comp[{w}][{v}][{u}][{k}]"
                    if not (isinstance(trip, list) and len(trip) == 3):
                        raise ParseError(f"{loc}: need [g_index, f_index, coeffs]")
                    gi, fi, coeffs = trip
                    if not (type(gi) is int and 0 <= gi < dg):
                        raise ParseError(f"{loc}: g_index out of range")
                    if not (type(fi) is int and 0 <= fi < df):
                        raise ParseError(f"{loc}: f_index out of range")
                    cv = _vec_in(coeffs, loc)
                    if len(cv) != dr:
                        raise ParseError(f"{loc}: coefficient vector must have length {dr}")
                    tab[(gi, fi)] = cv
                comp[(w, v, u)] = tab
    ids = {}
    for u, coords in _section(doc, "id", where).items():
        ids[u] = _vec_in(coords, f"{where}.id[{u}]")
    try:
        return LinearCategory(objects, hom_dims, comp, ids, labels or None)
    except ValueError as e:
        raise ParseError(f"{where}: {e}")


# ---------------------------------------------------------------------------
# functors, modules, ideals
# ---------------------------------------------------------------------------

def serialize_functor(f: LinearFunctor, src_name: str, tgt_name: str) -> dict:
    return {
        "source": src_name,
        "target": tgt_name,
        "objects": dict(f.object_map),
        "hom": {
            v: {u: _matrix_out(f.hom_maps[(v, u)]) for (vv, u) in f.hom_maps if vv == v}
            for (v, _) in f.hom_maps
        },
    }


def _category_of(doc: dict, key: str, cats: dict[str, LinearCategory], where: str):
    """The category that the name at doc[key] refers to."""
    name = _typed(doc.get(key), str, f"{where}.{key}")
    if name not in cats:
        raise ParseError(f"{where}.{key}: unknown category {name!r}")
    return cats[name]


def parse_functor(doc, cats: dict[str, LinearCategory], where: str) -> tuple[LinearFunctor, str, str]:
    _typed(doc, dict, where)
    src, tgt = (_category_of(doc, key, cats, where) for key in ("source", "target"))
    omap = _typed(doc.get("objects"), dict, f"{where}.objects")
    for u, image in omap.items():
        _typed(image, str, f"{where}.objects[{u}]")
    hom_maps = {}
    for v, row in _section(doc, "hom", where).items():
        for u, rows in _typed(row, dict, f"{where}.hom[{v}]").items():
            sv, su = omap.get(v), omap.get(u)
            if sv is None or su is None:
                raise ParseError(f"{where}.hom[{v}][{u}]: objects missing from map")
            hom_maps[(v, u)] = _matrix_in(
                rows, tgt.hom_dim(sv, su), src.hom_dim(v, u), f"{where}.hom[{v}][{u}]"
            )
    try:
        return LinearFunctor(src, tgt, omap, hom_maps), doc["source"], doc["target"]
    except ValueError as e:
        raise ParseError(f"{where}: {e}")


def serialize_module(m: Module, over_name: str) -> dict:
    action: dict[str, dict] = {}
    for v, u in m.over.hom_pairs():
        mats = [_matrix_out(m.action[(v, u, i)]) for i in range(m.over.hom_dim(v, u))]
        action.setdefault(v, {})[u] = mats
    return {"over": over_name, "dims": dict(m.dims), "action": action}


def parse_module(doc, cats: dict[str, LinearCategory], where: str) -> tuple[Module, str]:
    _typed(doc, dict, where)
    c = _category_of(doc, "over", cats, where)
    dims = _typed(doc.get("dims"), dict, f"{where}.dims")
    for u, d in dims.items():
        if u not in c.objects or type(d) is not int or d < 0:
            raise ParseError(f"{where}.dims[{u}]: bad dimension")
    action = {}
    for v, row in _section(doc, "action", where).items():
        for u, mats in _typed(row, dict, f"{where}.action[{v}]").items():
            d = c.hom_dim(v, u)
            if not isinstance(mats, list) or len(mats) != d:
                raise ParseError(f"{where}.action[{v}][{u}]: need {d} matrices")
            for i, rows in enumerate(mats):
                action[(v, u, i)] = _matrix_in(
                    rows, dims.get(v, 0), dims.get(u, 0), f"{where}.action[{v}][{u}][{i}]"
                )
    try:
        return Module(c, dims, action), doc["over"]
    except ValueError as e:
        raise ParseError(f"{where}: {e}")


def serialize_ideal(cat_name: str, generators) -> dict:
    return {
        "cat": cat_name,
        "generators": [
            {"source": g.source, "target": g.target, "coords": _vec_out(g.coords)}
            for g in generators
        ],
    }


def parse_ideal(doc, cats: dict[str, LinearCategory], where: str):
    _typed(doc, dict, where)
    c = _category_of(doc, "cat", cats, where)
    gens = []
    for k, g in enumerate(_typed(doc.get("generators") or [], list, f"{where}.generators")):
        loc = f"{where}.generators[{k}]"
        v, u = _typed(g, dict, loc).get("source"), g.get("target")
        if v not in c.objects or u not in c.objects:
            raise ParseError(f"{loc}: unknown endpoint")
        coords = _vec_in(g.get("coords"), loc)
        if len(coords) != c.hom_dim(v, u):
            raise ParseError(f"{loc}: coords must have length {c.hom_dim(v, u)}")
        gens.append(Morphism(v, u, tuple(coords)))
    return doc["cat"], gens


# ---------------------------------------------------------------------------
# whole instances
# ---------------------------------------------------------------------------

@dataclass
class Instance:
    categories: dict[str, LinearCategory] = field(default_factory=dict)
    functors: dict[str, tuple[LinearFunctor, str, str]] = field(default_factory=dict)
    modules: dict[str, tuple[Module, str]] = field(default_factory=dict)
    ideals: dict[str, tuple[str, list[Morphism]]] = field(default_factory=dict)


def parse_instance(doc) -> Instance:
    _typed(doc, dict, "top level")
    inst = Instance()
    cats = _typed(doc.get("categories"), dict, "categories")
    if not cats:
        raise ParseError("categories: need at least one category")
    for name, cdoc in cats.items():
        inst.categories[name] = parse_category(cdoc, f"categories.{name}")
    for name, fdoc in _section(doc, "functors").items():
        inst.functors[name] = parse_functor(fdoc, inst.categories, f"functors.{name}")
    for name, mdoc in _section(doc, "modules").items():
        inst.modules[name] = parse_module(mdoc, inst.categories, f"modules.{name}")
    for name, idoc in _section(doc, "ideals").items():
        inst.ideals[name] = parse_ideal(idoc, inst.categories, f"ideals.{name}")
    return inst


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}")
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno} column {e.colno}")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text at byte {e.start}")
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply")
    return parse_instance(doc)


def serialize_instance(inst: Instance) -> dict:
    return {
        "categories": {n: serialize_category(c) for n, c in inst.categories.items()},
        "functors": {
            n: serialize_functor(f, sn, tn) for n, (f, sn, tn) in inst.functors.items()
        },
        "modules": {n: serialize_module(m, cn) for n, (m, cn) in inst.modules.items()},
        "ideals": {n: serialize_ideal(cn, gens) for n, (cn, gens) in inst.ideals.items()},
    }


def bundle_to_instance(bundle) -> Instance:
    """Builtin bundles in instance form (categories addressed by bundle names)."""
    inst = Instance()
    inst.categories = dict(bundle.categories)
    name_of = {}
    for n, c in bundle.categories.items():
        name_of[id(c)] = n
    for n, f in bundle.functors.items():
        inst.functors[n] = (f, name_of[id(f.source)], name_of[id(f.target)])
    for n, m in bundle.modules.items():
        inst.modules[n] = (m, name_of[id(m.over)])
    for n, gens in bundle.ideal_generators.items():
        t = bundle.ideals.get(n)
        cat = t.cat if t is not None else next(iter(bundle.categories.values()))
        inst.ideals[n] = (name_of[id(cat)], list(gens))
    for n, t in bundle.ideals.items():
        if n not in inst.ideals:
            inst.ideals[n] = (name_of[id(t.cat)], list(t.generators))
    return inst
