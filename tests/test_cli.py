import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laxepi.cli import main
from laxepi.corpus import builtin
from laxepi.errors import ParseError
from laxepi.fileio import (
    bundle_to_instance,
    load_instance,
    parse_instance,
    serialize_instance,
)


@pytest.fixture()
def corner_file(tmp_path):
    inst = bundle_to_instance(builtin("corner_T2"))
    path = tmp_path / "corner.json"
    path.write_text(json.dumps(serialize_instance(inst)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def diagonal_file(tmp_path):
    inst = bundle_to_instance(builtin("diagonal_k_kk"))
    path = tmp_path / "diagonal.json"
    path.write_text(json.dumps(serialize_instance(inst)), encoding="utf-8")
    return str(path)


def test_roundtrip_all_builtins():
    from laxepi.corpus import BUILTIN_NAMES

    for name in BUILTIN_NAMES:
        inst = bundle_to_instance(builtin(name))
        doc = serialize_instance(inst)
        inst2 = parse_instance(json.loads(json.dumps(doc)))
        assert serialize_instance(inst2) == doc
        for cname, c in inst.categories.items():
            assert inst2.categories[cname] == c
        for fname, (f, _, _) in inst.functors.items():
            f2 = inst2.functors[fname][0]
            assert f2.object_map == f.object_map and f2.hom_maps == f.hom_maps
        for mname, (m, _) in inst.modules.items():
            assert inst2.modules[mname][0] == m


def test_validate_command(corner_file, capsys):
    assert main(["validate", corner_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is True
    assert out["ideals"]["e11"] == "ok"


def test_check_epi_diagonal(diagonal_file, capsys):
    assert main(["check", diagonal_file, "--functor", "d", "--kind", "epi"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is False
    w = out["witnesses"]["counit_witnesses"]["*"]
    assert sum(w["source_dims"].values()) == 4
    assert sum(w["target_dims"].values()) == 2


def test_check_glax_corner(corner_file, capsys):
    rc = main(
        ["check", corner_file, "--functor", "p", "--kind", "glax", "--ideal", "e11"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is True


def test_check_abelian_localization_corner(corner_file, capsys):
    rc = main(
        [
            "check",
            corner_file,
            "--functor",
            "p",
            "--kind",
            "abelian-localization",
            "--ideal",
            "e11",
        ]
    )
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["verdict"] is True


def test_factor_command(diagonal_file, capsys):
    assert main(["factor", diagonal_file, "--functor", "d"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mid_category"]["hom"]["*"]["*"]["dim"] == 2


def test_localize_command(corner_file, capsys):
    rc = main(["localize", corner_file, "--module", "regular", "--ideal", "e11"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["closed_module"]["dims"]["*"] == 1


def test_hom_command(corner_file, tmp_path, capsys):
    """The dimension, and the shape of each component of a map between the
    two modules: of the localized modules for a quotient Hom, none when the
    Hom is zero."""
    rc = main(["hom", corner_file, "--from", "regular", "--to", "regular"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["dimension"], out["component_shapes"]) == (3, {"*": [3, 3]})
    rc = main(
        ["hom", corner_file, "--from", "regular", "--to", "regular", "--ideal", "e11"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["dimension"], out["component_shapes"]) == (1, {"*": [1, 1]})
    a2_file = _write_instance(tmp_path, "a2", bundle_to_instance(builtin("A2_quiver")))
    for src, tgt, want in (("P2", "P1", (0, {})), ("P1", "P2", (1, {"1": [1, 1], "2": [1, 0]}))):
        assert main(["hom", a2_file, "--from", src, "--to", tgt]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["dimension"], out["component_shapes"]) == want


def test_precondition_exit_code(tmp_path, capsys):
    from laxepi.corpus import builtin

    inst = bundle_to_instance(builtin("summand_inclusion"))
    path = tmp_path / "summand.json"
    path.write_text(json.dumps(serialize_instance(inst)), encoding="utf-8")
    rc = main(["check", str(path), "--functor", "incl", "--kind", "epi"])
    assert rc == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "E_NOT_SURJECTIVE_ON_OBJECTS"


def _write_instance(tmp_path, name, inst):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(serialize_instance(inst)), encoding="utf-8")
    return str(path)


def test_functor_not_preserving_identities_is_refused(tmp_path, capsys):
    """Q -> Q x Q with 1 |-> (1, 0) is not a functor: every command that uses
    it exits 2 and names the identity law, and validate still reports it."""
    from laxepi.corpus import field_category, product_field_category
    from laxepi.fileio import Instance
    from laxepi.functors import LinearFunctor
    from laxepi.linalg import RationalMatrix

    q, qq = field_category(), product_field_category()
    f = LinearFunctor(q, qq, {"*": "*"}, {("*", "*"): RationalMatrix([[1], [0]])})
    path = _write_instance(tmp_path, "half", Instance({"Q": q, "QQ": qq}, {"f": (f, "Q", "QQ")}))
    for argv in (["check", path, "--functor", "f", "--kind", kind] for kind in ("epi", "lax-epi")):
        assert main(argv) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "E_INVALID_INSTANCE"
        assert "functors.f: identity at * not preserved" in out["message"]
    assert main(["factor", path, "--functor", "f"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "E_INVALID_INSTANCE"
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is False and out["problems"]["functors.f"]


def test_category_with_wrong_identity_is_refused(tmp_path, capsys):
    """Q x Q whose declared identity is (1, 0) breaks both unit laws: check,
    localize and hom exit 2 naming a unit law, and validate lists both."""
    from laxepi.category import LinearCategory
    from laxepi.corpus import product_field_category
    from laxepi.fileio import Instance
    from laxepi.functors import identity_functor
    from laxepi.modules import yoneda

    good = product_field_category()
    bad = LinearCategory(["*"], {("*", "*"): 2}, good.cells, {"*": [1, 0]}, good.basis_labels)
    inst = Instance(
        {"C": bad},
        {"id": (identity_functor(bad), "C", "C")},
        {"reg": (yoneda(bad, "*"), "C")},
        {"all": ("C", [bad.identity("*")])},
    )
    path = _write_instance(tmp_path, "bad_unit", inst)
    calls = [["check", path, "--functor", "id", "--kind", k] for k in ("epi", "lax-epi", "flat")]
    calls += [
        ["localize", path, "--module", "reg", "--ideal", "all"],
        ["hom", path, "--from", "reg", "--to", "reg"],
    ]
    for argv in calls:
        assert main(argv) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["error"] == "E_INVALID_INSTANCE"
        assert out["message"].startswith("categories.C: ") and "id_*" in out["message"]
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is False and len(out["problems"]["categories.C"]) == 2


def test_each_category_is_validated_once(corner_file, monkeypatch, capsys):
    """A command validates every category it touches once, however many of its
    functors, modules and ideals live over it."""
    import laxepi.cli as cli

    seen = []
    real = cli.validate_category
    monkeypatch.setattr(cli, "validate_category", lambda c: seen.append(c) or real(c))
    calls = {
        ("hom", corner_file, "--from", "regular", "--to", "regular", "--ideal", "e11"): 1,
        ("localize", corner_file, "--module", "regular", "--ideal", "e11"): 1,
        ("check", corner_file, "--functor", "p", "--kind", "glax", "--ideal", "e11"): 2,
    }
    for argv, n_categories in calls.items():
        seen.clear()
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert len(seen) == len({id(c) for c in seen}) == n_categories


@pytest.fixture()
def mixed_file(tmp_path):
    """corner_T2 (p: Q -> T2) with an ideal `onQ` and a module `q1` over Q."""
    from laxepi.modules import yoneda

    inst = bundle_to_instance(builtin("corner_T2"))
    q = inst.categories["Q"]
    inst.ideals["onQ"] = ("Q", [q.identity("*")])
    inst.modules["q1"] = (yoneda(q, "*"), "Q")
    return _write_instance(tmp_path, "mixed", inst)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--functor", "p", "--kind", "glax", "--ideal", "onQ"],
        ["check", "--functor", "p", "--kind", "abelian-localization", "--ideal", "onQ"],
        ["check", "--functor", "p", "--kind", "cond-epi", "--ideal", "onQ"],
        ["localize", "--module", "regular", "--ideal", "onQ"],
        ["hom", "--from", "regular", "--to", "regular", "--ideal", "onQ"],
        ["localize", "--module", "q1", "--ideal", "e11"],
        ["hom", "--from", "regular", "--to", "q1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_entries_over_different_categories_are_refused(mixed_file, argv, capsys):
    """An ideal must live on the functor's target or on the module's category,
    and the two modules of hom over one category; otherwise exit 2."""
    assert main([argv[0], mixed_file, *argv[1:]]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "E_INVALID_INSTANCE"
    assert "lives over" in out["message"]
    assert "over Q" in out["message"] and "over T2" in out["message"]


def test_ideal_not_idempotent_exit_code(tmp_path, capsys):
    inst = bundle_to_instance(builtin("truncated_poly"))
    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(serialize_instance(inst)), encoding="utf-8")
    rc = main(
        ["check", str(path), "--functor", "id", "--kind", "cond-epi", "--ideal", "x"]
    )
    assert rc == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "E_IDEAL_NOT_IDEMPOTENT"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(bad)]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "E_PARSE"


def test_functor_file_with_an_extra_object_exits_3(tmp_path, capsys):
    """A functor whose object map names an object its source lacks is a parse
    error, not a functor that check would call surjective."""
    doc = serialize_instance(bundle_to_instance(builtin("A2_quiver")))
    doc["functors"]["v1"]["objects"]["ghost"] = "2"
    path = tmp_path / "ghost.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path), "--functor", "v1", "--kind", "epi"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "E_PARSE" and "outside the source" in out["message"]


def test_module_with_a_mis_shaped_action_matrix_is_refused_at_load(tmp_path, capsys):
    """P2's action at the arrow 1 -> 2 given as a 2×1 matrix (or a 1×2 one)
    where dims ask for 1×1: validate, localize and hom refuse the file with
    exit 3 and an E_PARSE report, not a traceback."""
    for bad in ([["1"], ["0"]], [["1", "0"]]):
        doc = serialize_instance(bundle_to_instance(builtin("A2_quiver")))
        doc["modules"]["P2"]["action"]["1"]["2"] = [bad]
        path = tmp_path / "mis_shaped.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["validate", str(path)],
                     ["localize", str(path), "--module", "P2", "--ideal", "trivial"],
                     ["hom", str(path), "--from", "P1", "--to", "P2"]):
            assert main(argv) == 3
            captured = capsys.readouterr()
            out = json.loads(captured.out)
            assert out["error"] == "E_PARSE" and "P2" in out["message"], out
            assert "Traceback" not in captured.err


def test_parse_error_reports_field(tmp_path):
    doc = {"categories": {"C": {"objects": ["*"], "hom": {"*": {"*": {"dim": -1}}}}}}
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ParseError, match="dim"):
        load_instance(str(path))


def test_corpus_run_smoke(capsys):
    rc = main(["corpus", "run", "--seed", "3", "--count", "2"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in captured


def test_corpus_run_refuses_a_negative_count(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "run", "--count", "-3"])
    assert exc.value.code == 2
    assert "--count: must be non-negative" in capsys.readouterr().err


def test_corpus_run_reports_a_disagreeing_oracle(monkeypatch, capsys):
    """corpus run compares each decider with its independent route (see
    `oracles.cross_check`): flipping either side of any one comparison makes
    it list random failures with that comparison's message and exit 1."""
    from dataclasses import replace

    import laxepi.decide as decide
    import laxepi.oracles as oracles

    mult, glax = oracles.multiplication_map_iso, oracles.glax_falsification_oracle
    lax, closed, qiso, hrc = decide.is_lax_epi, oracles.is_closed, oracles.q_iso, oracles.hom_restriction_closed
    flat, counit_route = decide.is_flat, oracles.conditioned_check_by_counits
    annihilated = oracles.is_annihilated

    def flip_canonical_epi(t):
        rep = lax(t)
        return replace(rep, details={**rep.details, "canonical_epi": not rep.details["canonical_epi"]})

    flips = [
        (oracles, "multiplication_map_iso", lambda s: (not mult(s)[0], mult(s)[1]), "multiplication-map"),
        (oracles, "glax_falsification_oracle", lambda p, t: not glax(p, t), "restriction hom map"),
        (decide, "is_lax_epi", lambda t: replace(lax(t), verdict=not lax(t).verdict), "full faithfulness"),
        (decide, "is_lax_epi", flip_canonical_epi, "is_epi on the canonical factor"),
        (oracles, "is_closed", lambda t, x: not closed(t, x), "a module that is not closed"),
        (oracles, "q_iso", lambda t, f: not qiso(t, f), "a unit that is not a q-isomorphism"),
        (oracles, "gabriel_localize", lambda t, x: None, "differs from the Gabriel step"),
        (decide, "is_flat", lambda p: replace(flat(p), verdict=not flat(p).verdict), "Tor_1 of the tops"),
        (oracles, "adjunction_check", lambda *a: {"ok": False, "failures": ["flipped"]}, "adjunction"),
        (oracles, "hom_restriction_closed", lambda *a: not hrc(*a), "Hom-restriction does not"),
        (oracles, "conditioned_check_by_counits",
         lambda fac: (not counit_route(fac)[0], counit_route(fac)[1]), "the counit route"),
        (oracles, "flat_quotient_by_tor_modules", lambda p, t: [{"object": "flipped"}],
         "differ from the Tor_1 modules"),
        (oracles, "conditioned_epi_by_counit_kernels", lambda s, t: {"flipped": {}},
         "differ from the counit kernels"),
        (oracles, "is_annihilated", lambda t, x: not annihilated(t, x), "differs from the action test"),
    ]
    for module, name, flipped, message in flips:
        with monkeypatch.context() as m:
            m.setattr(module, name, flipped)
            assert main(["corpus", "run", "--count", "3"]) == 1
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("\n{") + 1:])
        assert summary["verdict"] is False
        assert any(f.startswith("random[") and message in f for f in summary["failures"]), message
        assert "FAIL  random seed" in out


def test_report_determinism(corner_file, capsys):
    main(["check", corner_file, "--functor", "p", "--kind", "glax", "--ideal", "e11"])
    out1 = json.loads(capsys.readouterr().out)
    main(["check", corner_file, "--functor", "p", "--kind", "glax", "--ideal", "e11"])
    out2 = json.loads(capsys.readouterr().out)
    out1.pop("timing_s"), out2.pop("timing_s")
    assert out1 == out2


def _builtin_docs():
    from laxepi.corpus import BUILTIN_NAMES

    return [serialize_instance(bundle_to_instance(builtin(name))) for name in BUILTIN_NAMES]


_BUILTIN_DOCS = _builtin_docs()
_WRONG_TYPES = ("x", 7, [], {}, ["x"], {"x": 1})


def _paths(node, prefix=()):
    """The path of every value inside a JSON document, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    """The container that holds the value at path, and its key there."""
    *up, key = path
    for k in up:
        doc = doc[k]
    return doc, key


def _mutations(doc, path):
    """The single mutations that apply at a path: delete the key or drop the list
    entry, duplicate a list entry, give the value the wrong type, or change an
    integer by one."""
    parent, key = _parent(doc, path)
    value = parent[key]
    out = [("delete", None)]
    if isinstance(parent, list):
        out.append(("duplicate", None))
    out += [("replace", w) for w in _WRONG_TYPES if type(w) is not type(value)]
    if isinstance(value, int) and not isinstance(value, bool):
        out += [("replace", value + 1), ("replace", value - 1)]
    return out


def _mutate(doc, path, how, new):
    doc = json.loads(json.dumps(doc))
    parent, key = _parent(doc, path)
    if how == "delete":
        del parent[key]
    elif how == "duplicate":
        parent.insert(key, parent[key])
    else:
        parent[key] = new
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_instance_never_crashes(data):
    """One mutation of a serialized builtin: validate, check, localize and hom
    refuse it (exit 2 or 3) or answer (exit 0), never a traceback or exit 4."""
    import contextlib
    import io
    import tempfile

    from laxepi.decide import CHECKS, IDEAL_CHECKS

    doc = data.draw(st.sampled_from(_BUILTIN_DOCS))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    how, new = data.draw(st.sampled_from(_mutations(doc, path)))
    modules, ideals = (list(doc.get(k, {})) for k in ("modules", "ideals"))
    functor = data.draw(st.sampled_from(list(doc["functors"])))  # every builtin has one
    kind = data.draw(st.sampled_from([k for k in CHECKS if ideals or k not in IDEAL_CHECKS]))
    with tempfile.TemporaryDirectory() as tmp:
        file = f"{tmp}/mutated.json"
        with open(file, "w", encoding="utf-8") as fh:
            json.dump(_mutate(doc, path, how, new), fh)
        calls = [["validate", file], ["check", file, "--functor", functor, "--kind", kind]]
        if kind in IDEAL_CHECKS:
            calls[-1] += ["--ideal", data.draw(st.sampled_from(ideals))]
        if modules and ideals:
            m, i = data.draw(st.sampled_from(modules)), data.draw(st.sampled_from(ideals))
            calls += [["localize", file, "--module", m, "--ideal", i]]
            calls += [["hom", file, "--from", m, "--to", data.draw(st.sampled_from(modules))]]
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            assert rc in (0, 2, 3), (argv[0], path, how, new, rc)
