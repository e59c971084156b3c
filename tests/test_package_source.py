import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cartancover"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check in the package may be one
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def _bound_names(node):
    for alias in node.names:
        yield alias.asname or alias.name.split(".")[0]


def test_no_unused_imports_in_package_modules():
    # __init__.py re-exports by import, so it is the one module left out
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno}:{name}"
                    for name in _bound_names(node)
                    if name not in used
                ]
    assert found == []


def test_one_spanning_tree_walk_in_package():
    # every walk along a spanning tree goes through SpanningTree.transport;
    # another loop over a tree's ``order`` would be a second copy of it
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "order"
                for sub in ast.walk(node.iter)
            ):
                found.append(f"{path.name}:{node.iter.lineno}")
    assert len(found) == 1 and found[0].startswith("bundles.py:"), found


def _is_row_swap(node) -> bool:
    # rows[i], rows[j] = rows[j], rows[i]
    return (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Tuple)
        and isinstance(node.value, ast.Tuple)
        and len(node.targets[0].elts) == len(node.value.elts) == 2
        and all(isinstance(e, ast.Subscript) for e in node.targets[0].elts)
        and [ast.unparse(e) for e in node.targets[0].elts]
        == [ast.unparse(e) for e in reversed(node.value.elts)]
    )


def _zips_two_rows(gen) -> bool:
    # zip(row, pivot_row) over existing rows. A polynomial times a linear
    # factor zips two shifted copies of one list, displays built in place:
    # zip([0, *coeffs], [*coeffs, 0]) is no row operation
    return (
        isinstance(gen.iter, ast.Call)
        and getattr(gen.iter.func, "id", None) == "zip"
        and not any(isinstance(arg, (ast.List, ast.Tuple)) for arg in gen.iter.args)
    )


def _is_row_operation(node) -> bool:
    # [x - f * y for x, y in zip(row, pivot_row)], possibly reduced afterwards
    return (
        isinstance(node, ast.ListComp)
        and any(_zips_two_rows(gen) for gen in node.generators)
        and any(
            isinstance(sub, ast.BinOp)
            and isinstance(sub.op, ast.Sub)
            and isinstance(sub.right, ast.BinOp)
            and isinstance(sub.right.op, ast.Mult)
            for sub in ast.walk(node.elt)
        )
    )


def test_one_gauss_jordan_loop_in_package():
    # rref, kernel, solve, inverse, min_poly, eigenspaces and the subspaces
    # all eliminate through linalg._eliminate; a row swap or a row operation
    # x - f * y in any other function would be a second elimination loop
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split(':')[0]}:{node.name}"
        if _is_row_swap(node) or _is_row_operation(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name)
    assert sorted(found) == ["linalg.py:_eliminate"]


def test_field_scalars_built_only_where_values_leave_the_integer_form():
    # matrices, subspaces, eigenlines, polynomials, roots, line-bundle
    # scalars and the validation compute on canonical integer forms, and
    # every value enters through field.to_ints, refused instance entries
    # included; a call that builds field scalars anywhere else would bring
    # back the scalar round trips of every intermediate result, or a second,
    # scalar arithmetic. Only the scalar views build them, with from_ints,
    # and only fields.py calls Fp. The oracle line_bundles_gauge_equivalent
    # reads the scalar view ``rows``, which is no call.
    boundary = {
        "linalg.py:rows",
        "linalg.py:apply",
        "linalg.py:coordinates_of",
        "linalg.py:solve",
        "poly.py:coeffs",
    }
    found, fp_calls, defined = set(), [], {}

    def visit(node, name, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.setdefault(name, set()).add(node.name)
            where = f"{name}:{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "from_ints":
                found.add(where)
            if called == "Fp" and name != "fields.py":
                fp_calls.append(f"{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, name, where)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name, path.name)
    assert found == boundary, sorted(found ^ boundary)
    assert fp_calls == []
    # to_ints is the one reader: no second one may come back beside it
    assert not defined["fields.py"] & {"coerce", "parse", "render"}
    assert "parse_scalar" not in defined["instances.py"]


def test_matrix_entries_enter_and_leave_without_field_scalars():
    # instance-file entries go straight into the canonical integer form and
    # reports are written from it; a parse, coerce or from_ints call, or a
    # read of Matrix.rows, in these functions would bring back the scalar
    # built for every entry on the way in or out
    watched = {
        "instances.py": {"parse_matrix"},
        "reports.py": {"render_matrix", "matrix_oneline"},
        "linalg.py": {"Matrix.__init__", "Matrix.__repr__"},
    }
    scalar_paths = {"coerce", "parse", "parse_scalar", "from_ints"}
    seen, found = set(), set()

    def visit(node, name, where, scope):
        # scope: the watched function the node lies in, nested functions included
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
            if scope is None and where in watched[name]:
                scope = f"{name}:{where}"
                seen.add(scope)
        if scope is not None:
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in scalar_paths:
                    found.add(f"{scope}:{called}")
            if isinstance(node, ast.Attribute) and node.attr == "rows":
                found.add(f"{scope}:rows")
        for child in ast.iter_child_nodes(node):
            visit(child, name, where, scope)

    for name in watched:
        visit(ast.parse((PACKAGE / name).read_text(encoding="utf-8")), name, "", None)
    assert seen == {f"{name}:{where}" for name in watched for where in watched[name]}
    assert sorted(found) == []


def test_no_reference_oracle_called_in_package():
    # the round trip reads its isomorphism off eta and its flat-section
    # dimension off the cover, and edges are checked on eigenlines; the
    # search, the holonomy comparison, the linear-algebra flat sections and
    # subspace conjugation stay only as references for tests
    oracles = {
        "cover_isomorphisms",
        "line_bundles_gauge_equivalent",
        "flat_sections",
        "conjugate_subspace",
    }
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in oracles:
                    found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == []


def test_no_scan_over_a_prime_field_in_package():
    # root finding costs O(log p) products, so no package code may list the
    # elements of GF(p) or loop over range(field.p)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "elements":
                found.append(f"{path.name}:{node.lineno}:elements")
            if (
                isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
                and isinstance(node.iter, ast.Call)
                and getattr(node.iter.func, "id", None) == "range"
                and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "p"
                    for arg in node.iter.args
                    for sub in ast.walk(arg)
                )
            ):
                found.append(f"{path.name}:{node.iter.lineno}:range")
    assert found == []


def test_every_error_type_is_raised_in_package():
    # an error class no package module raises is dead API; the base classes
    # that other errors derive from are the only ones exempt
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node for node in errors.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    concrete = {node.name for node in classes} - bases
    raised = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert sorted(concrete - raised) == []


def test_no_json_dump_in_package():
    # machine reports are written by reports.Report.to_machine_text, whose
    # one-pass writer emits the bytes json.dumps(indent=2) would in a
    # fraction of its time; a json.dump or json.dumps call, or either name
    # imported from json, would be a second serializer
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("dump", "dumps")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ):
                found.append(f"{path.name}:{node.lineno}:json.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [
                    f"{path.name}:{node.lineno}:{alias.name}"
                    for alias in node.names
                    if alias.name in ("dump", "dumps")
                ]
    assert found == []


def test_no_private_name_imported_across_package_modules():
    # a name with a leading underscore is its module's own: another module
    # that imports one re-decides what the owner's public entries decide
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "cartancover":
                continue
            found += [
                f"{path.name}:{node.lineno}:{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.endswith("__")
            ]
    assert found == []


def _modules_after(statement: str) -> set:
    code = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); {statement}; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return set(done.stdout.split())


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every CLI process pays this import first; dataclasses, with the inspect
    # machinery it loads, once took most of it
    added = _modules_after("import cartancover.cli") - _modules_after("pass")
    assert "cartancover.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_matrix_inverse_called_only_where_an_inverse_is_the_result():
    # a valid bundle inverts only the transitions its transport crosses
    # against their orientation, through the cached transition_inverse; an
    # inverse anywhere else would bring back an eager inversion pass
    allowed = {
        "bundles.py:BundleRep.transition_inverse",
        "cartan.py:conjugate_subspace",
    }
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if ":" in where else f"{where}:{node.name}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "inverse"
        ):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path.name)
    assert found == allowed, sorted(found ^ allowed)


def test_one_test_of_a_diagonal_algebra_in_package():
    # spans_diagonal_algebra is the one test of A = D(L), at the root split
    # as at every other vertex; _eigenvalues, the lines' eigenvalues, is read
    # only by it and by the functionals classify_subspace reports, and a
    # subspace is conjugated only through cartan.conjugate_subspace
    functions, callers = set(), set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.add(node.name)
            where = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_eigenvalues"
        ):
            callers.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        visit(tree, path.name)
    assert not functions & {"diagonal_functionals", "conjugated"}
    assert callers == {"spans_diagonal_algebra", "classify_subspace"}, sorted(callers)


def _reads_a_diagonal(fn) -> bool:
    # a row subscripted by its own index (``row[i]`` for ``i, row`` of an
    # enumerate) or an entry on the diagonal (``m[k][k]``)
    rows = {
        (node.target.elts[1].id, node.target.elts[0].id)
        for node in ast.walk(fn)
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Call)
        and getattr(node.iter.func, "id", None) == "enumerate"
        and isinstance(node.target, ast.Tuple)
        and all(isinstance(e, ast.Name) for e in node.target.elts)
    }
    for node in ast.walk(fn):
        if not isinstance(node, ast.Subscript):
            continue
        value, index = node.value, node.slice
        if isinstance(value, ast.Name) and isinstance(index, ast.Name):
            if (value.id, index.id) in rows:
                return True
        elif isinstance(value, ast.Subscript) and ast.dump(value.slice) == ast.dump(index):
            return True
    return False


def _builds_a_polynomial(fn) -> bool:
    # Poly(...) or Poly._make(...)
    return any(
        isinstance(node, ast.Call)
        and (
            getattr(node.func, "id", None) == "Poly"
            or getattr(getattr(node.func, "value", None), "id", None) == "Poly"
        )
        for node in ast.walk(fn)
    )


def test_one_way_to_split_a_block_in_package():
    # the root split takes every block's spectrum, a diagonal or scalar
    # restriction's included, through linalg.eigenspaces; a spectrum read by
    # _refined_lines itself (a private scalar reading, its own min_poly or
    # root search) would be a second way to split a block. Only eigenspaces
    # reads a spectrum off a matrix's diagonal: it is the one function that
    # reads a diagonal, and outside poly.py only it and min_poly, from the
    # first dependence among the powers, build a polynomial
    spectral = {"eigenspaces", "min_poly", "roots_in_field", "_scalar_spectrum"}
    functions, calls = set(), []
    diagonal, polynomial = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            functions.add(node.name)
            if _reads_a_diagonal(node):
                diagonal.add(f"{path.name}:{node.name}")
            if path.name != "poly.py" and _builds_a_polynomial(node):
                polynomial.add(f"{path.name}:{node.name}")
            if node.name == "_refined_lines":
                calls += [
                    sub.func.id
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in spectral
                ]
    assert "_scalar_spectrum" not in functions
    assert calls == ["eigenspaces"], calls
    assert diagonal == {"linalg.py:eigenspaces"}, sorted(diagonal)
    assert polynomial == {"linalg.py:eigenspaces", "linalg.py:min_poly"}, sorted(polynomial)


# each value is passed once: an algebra carries its bundle (``parent``), a
# line bundle its cover, a matrix its field, a subspace its size
PARAMETERS = {
    "bundles.validate_cartan_bundle": ["algebra"],
    "covers.build_spectral_cover": ["algebra"],
    "covers.roundtrip_verify": ["algebra"],
    "covers.direct_image_line_bundle": ["line"],
    "covers.canonical_algebra_map": ["line"],
    "covers.cover_roundtrip": ["cover", "line"],
    "cartan.classify_subspace": ["a"],
    "reports.render_matrix": ["m"],
    "reports.matrix_oneline": ["m"],
    "instances.bundle_instance_to_json": ["bundle"],
    "instances.cartan_bundle_instance_to_json": ["algebra"],
    "instances.cover_instance_to_json": ["field", "cover"],
    "instances.line_bundle_instance_to_json": ["line"],
}
# (carrier, carried): a function that takes the first need not take the
# second, whether either is optional or not
CARRIED = (("SubalgebraBundle", "BundleRep"), ("LineBundleOnCover", "CoverRep"))


def _annotation_names(arg) -> set:
    if arg.annotation is None:
        return set()
    return {sub.id for sub in ast.walk(arg.annotation) if isinstance(sub, ast.Name)}


def test_no_package_function_takes_a_value_its_other_argument_carries():
    for name, expected in PARAMETERS.items():
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"cartancover.{module}"), function)
        assert list(inspect.signature(fn).parameters) == expected, name
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotated = set().union(*map(_annotation_names, args))
            if node.name != "cover_roundtrip" and any(
                {carrier, carried} <= annotated for carrier, carried in CARRIED
            ):
                found.append(f"{path.name}:{node.lineno}:{node.name}")
    assert found == []


# functions and methods no package code refers to, each with its reason
BENCH = "pinned by name in bench/spans.py, which ROADMAP item 2a retargets"
PUBLIC = "public API that tests read"


def _via(pinned: str) -> str:
    return f"reached only through {pinned}, which bench/spans.py pins"


# the CLI's entry point main needs no entry: cli.py and __main__.py call it
UNREFERENCED = {
    "bundles.flat_sections": BENCH,
    "cartan.conjugate_subspace": BENCH,
    "covers.cover_isomorphisms": BENCH,
    "covers.line_bundles_gauge_equivalent": BENCH,
    "linalg.Subspace.intersect": BENCH,
    "linalg.solve": BENCH,
    # ROADMAP item 20 deletes these with the pinned names that reach them
    "bundles.tree_paths": _via("bundles.flat_sections"),
    "bundles.tree_paths.step": _via("bundles.flat_sections, in tree_paths"),
    "cartan.MatrixSubspace.coordinates_of": _via("bundles.flat_sections"),
    "linalg.kernel": _via("bundles.flat_sections"),
    "linalg.Matrix.zeros": _via("bundles.flat_sections"),
    "linalg.Matrix.from_columns": _via("bundles.flat_sections"),
    "linalg.Matrix.apply": _via("bundles.flat_sections"),
    "linalg.Matrix.flatten": _via("bundles.flat_sections, in MatrixSubspace.coordinates_of"),
    "linalg.Subspace.coordinates_of": _via("bundles.flat_sections"),
    "linalg.Subspace.contains": _via("bundles.flat_sections, in Subspace.coordinates_of"),
    "linalg.Subspace._residual": _via("bundles.flat_sections, in Subspace.contains"),
    "linalg.Subspace.zero": _via("linalg.Subspace.intersect"),
    "fields.Rationals.one": _via("covers.line_bundles_gauge_equivalent"),
    "fields.PrimeField.one": _via("covers.line_bundles_gauge_equivalent"),
    # named after the paper's constructions
    "parabolic.degree_direct_image": PUBLIC,
    "parabolic.pushforward_parabolic": PUBLIC,
    # the scalar view of a polynomial, which ROADMAP item 14 moves to tests
    "poly.Poly.coeffs": PUBLIC,
}


def _unreferenced(sources: dict) -> set:
    """The functions and methods of ``sources`` (module name to source text)
    that no code in them refers to outside their own body, or only
    unreferenced functions do: a method by attribute (``x.name``), a
    function by name or attribute. A nested function is named by its
    enclosing function (``bundles.tree_paths.step``), and only references
    from inside that function count. ``__init__`` only re-exports, so its
    imports are no reference, and dunder methods are called by Python
    itself."""
    defined, refs = [], {}

    def visit(node, module, cls, owner):
        if isinstance(node, ast.ClassDef):
            for child in ast.iter_child_nodes(node):
                visit(child, module, node.name, owner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{module}.{cls}.{node.name}" if cls else f"{owner or module}.{node.name}"
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.append((name, node.name, cls is not None, owner))
            for child in ast.iter_child_nodes(node):
                visit(child, module, None, name)
            return
        if isinstance(node, ast.Attribute):
            refs.setdefault(("attr", node.attr), set()).add(owner)
        if isinstance(node, ast.Name):
            refs.setdefault(("name", node.id), set()).add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, module, cls, owner)

    for module, text in sources.items():
        if module != "__init__":
            visit(ast.parse(text), module, None, None)
    referrers = {}
    for name, short, is_method, scope in defined:
        owners = set(refs.get(("attr", short), ()))
        if not is_method:
            owners |= refs.get(("name", short), set())
        if scope is not None:
            owners = {o for o in owners if f"{o}.".startswith(f"{scope}.")}
        referrers[name] = owners - {name}
    # to a fixed point: what only unreferenced functions refer to is
    # unreferenced; starting from every function, so a cycle of orphans is too
    unreferenced = set(referrers)
    while True:
        kept = {name for name in unreferenced if referrers[name] <= unreferenced}
        if kept == unreferenced:
            return unreferenced
        unreferenced = kept


def _package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def test_every_package_function_has_a_package_caller():
    # a function only tests, __init__ exports or the benchmark reach is
    # library-only surface; it is deleted, moved to tests/helpers.py as an
    # oracle, or named above with its reason
    assert _unreferenced(_package_sources()) == set(UNREFERENCED)


def test_the_caller_guard_finds_a_re_added_orphan():
    sources = _package_sources()
    text = sources["parabolic"]
    anchor = "class BranchPoint(NamedTuple):\n    sheets: tuple\n"
    assert anchor in text
    sources["parabolic"] = text.replace(
        anchor,
        anchor + "\n    def profile(self) -> tuple:\n"
        "        return tuple(s.multiplicity for s in self.sheets)\n",
    )
    found = _unreferenced(sources) - set(UNREFERENCED)
    assert found == {"parabolic.BranchPoint.profile"}
    # a call from an orphan is none: the chain is found whole
    sources["cli"] += "\n\ndef _profiles(point):\n    return point.profile()\n"
    found = _unreferenced(sources) - set(UNREFERENCED)
    assert found == {"cli._profiles", "parabolic.BranchPoint.profile"}
    # a reference from module-level code reaches the whole chain
    sources["cli"] += "\n\nPROFILES = _profiles\n"
    assert _unreferenced(sources) - set(UNREFERENCED) == set()
    # two orphans that refer only to each other
    sources["cli"] += "\n\ndef _ping(x):\n    return _pong(x)\n\n\ndef _pong(x):\n    return _ping(x)\n"
    assert _unreferenced(sources) - set(UNREFERENCED) == {"cli._ping", "cli._pong"}
    # a call from an allowlisted function is none: flat_sections is pinned
    sources = _package_sources()
    text = sources["bundles"]
    anchor = "    tree = validate_bundle(bundle)\n    paths = tree_paths(bundle, tree)\n"
    assert anchor in text
    sources["bundles"] = text.replace(anchor, anchor + "    _holonomies(bundle, tree)\n") + (
        "\n\ndef _holonomies(bundle, tree):\n    return tree.cotree_edges\n"
    )
    found = _unreferenced(sources) - set(UNREFERENCED)
    assert found == {"bundles._holonomies"}
    # a nested function counts only references from inside its enclosing
    # function: an uncalled nested step in cover_report is found, though the
    # live nested step of tree_gauge, in the same module, shares its name
    sources = _package_sources()
    text = sources["covers"]
    anchor = "def cover_report(cover: CoverRep) -> CoverReport:\n"
    assert anchor in text
    sources["covers"] = text.replace(anchor, anchor + "    def step(x):\n        return x\n\n")
    found = _unreferenced(sources) - set(UNREFERENCED)
    assert found == {"covers.cover_report.step"}
