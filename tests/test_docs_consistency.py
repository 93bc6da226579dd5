"""Docs-freshness checks: the documentation must track the code."""

import pathlib

REPO = pathlib.Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (REPO / name).read_text()


def test_design_lists_every_source_module():
    design = _read("DESIGN.md")
    missing = []
    for path in (REPO / "src" / "repro").rglob("*.py"):
        if path.name.startswith("__"):
            continue
        if path.name not in design:
            missing.append(str(path.relative_to(REPO)))
    assert not missing, f"DESIGN.md inventory is stale: {missing}"


def test_design_index_names_real_bench_files():
    design = _read("DESIGN.md")
    bench_names = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
    import re

    referenced = set(re.findall(r"bench_[a-z0-9_]+\.py", design))
    ghosts = {
        name for name in referenced
        if name not in bench_names and "*" not in name
    }
    assert not ghosts, f"DESIGN.md references missing benches: {ghosts}"


def test_experiments_covers_every_table_and_figure():
    experiments = _read("EXPERIMENTS.md")
    for marker in (
        "Table I ", "Table II ", "Table III ", "Table IV ",
        "Fig 3", "Figs 4-5", "Fig 6", "Fig 7", "Fig 8", "Fig 9",
        "Fig 10", "Fig 11", "Fig 12", "Fig 13", "Fig 14",
    ):
        assert marker in experiments, marker


def test_readme_lists_every_example():
    readme = _read("README.md")
    for path in (REPO / "examples").glob("*.py"):
        assert path.name in readme, f"README missing example {path.name}"


def test_readme_mentions_every_package():
    readme = _read("README.md")
    for pkg in ("repro.sim", "repro.hardware", "repro.network", "repro.comm",
                "repro.microbench", "repro.io", "repro.resilience",
                "repro.sweep3d",
                "repro.linpack", "repro.apps", "repro.core",
                "repro.validation"):
        assert pkg in readme, pkg


def test_api_doc_imports_are_valid():
    """Every `from repro...` line in docs/*.md resolves."""
    import re

    docs = sorted((REPO / "docs").glob("*.md"))
    assert len(docs) >= 5
    for path in docs:
        text = path.read_text()
        for line in re.findall(r"^from repro[\w.]* import .+$", text, re.MULTILINE):
            exec(line, {})  # raises on a stale import


def test_documented_campaign_flags_exist():
    """Every ``--flag`` in a ``python -m repro campaign`` command shown
    in the campaign docs, the README or the CLI's own docstring is an
    option the campaign parser accepts (catches removed flags)."""
    import re

    from repro.campaign import cli

    known = cli._build_parser()._option_string_actions
    sources = {
        "docs/CAMPAIGN.md": _read("docs/CAMPAIGN.md"),
        "README.md": _read("README.md"),
        "repro.campaign.cli docstring": cli.__doc__,
    }
    commands, stale = 0, []
    for name, text in sources.items():
        joined = re.sub(r"\\\n\s*", " ", text)  # backslash continuations
        for args in re.findall(r"python -m repro campaign([^\n`#]*)", joined):
            commands += 1
            stale += [f"{name}: {flag}" for flag in
                      re.findall(r"(?<!\S)--[a-z][a-z-]*", args)
                      if flag not in known]
    assert commands >= 10, f"found only {commands} campaign commands"
    assert not stale, f"documented flags the campaign CLI rejects: {stale}"


def _design_inventory() -> list[str]:
    """The module paths DESIGN.md's package inventory lists, relative
    to ``src/repro``: a two-space entry ending in ``/`` opens a package,
    a four-space entry is a module of the package open above it, and
    an entry's names run up to the first double space (continuation
    lines are indented past the names column)."""
    import re

    block = _read("DESIGN.md").split("## 3. Package inventory")[1].split("```")[1]
    package, paths = "", []
    for line in block.splitlines():
        entry = re.match(r"( {2}| {4})([^\s,]+(?:, [^\s,]+)*)", line)
        if entry is None:
            continue
        indent, names = entry.groups()
        if indent == "  ":
            package = names if names.endswith("/") else ""
            if package:
                continue
        paths += [package + name for name in names.split(", ")]
    return paths


def test_design_inventory_names_real_modules():
    paths = _design_inventory()
    assert len(paths) >= 80, f"inventory parse found only {len(paths)} modules"
    ghosts = [p for p in paths if not (REPO / "src" / "repro" / p).is_file()]
    assert not ghosts, f"DESIGN.md lists modules that do not exist: {ghosts}"


def test_documented_span_and_event_categories_are_emitted():
    """The span and event tables of the observability and API docs name
    exactly the categories that the package's ``.span("...")`` and
    ``.event("...")`` calls record: none that nothing records, and none
    left out."""
    import re

    emitted = set()
    for path in (REPO / "src" / "repro").rglob("*.py"):
        emitted.update(re.findall(r"\.(?:span|event)\(\s*\"([^\"]+)\"",
                                  path.read_text()))
    documented = set()
    for name in ("docs/OBSERVABILITY.md", "docs/API.md"):
        for table in re.findall(r"^\| *(?:Category|Event|category) *\|.*\n"
                                r"(?:\|.*\n)+", _read(name), re.MULTILINE):
            documented.update(re.findall(r"^\| *`([^`]+)`", table,
                                         re.MULTILINE))
    assert emitted, "no .span/.event call found in the package"
    stale = sorted(documented - emitted)
    assert not stale, f"documented categories nothing records: {stale}"
    missing = sorted(emitted - documented)
    assert not missing, f"recorded categories the docs' tables omit: {missing}"


def _resolve_dotted(name: str):
    """Import the longest module prefix of ``name``, then ``getattr``
    the rest; raises if any part is missing."""
    import importlib

    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_doc_references_to_repro_names_resolve():
    """Every backticked dotted name starting with ``repro.`` in the docs
    (``repro.comm.mpi.SimMPI``, ``repro.obs.format_gantt(...)``) names
    something that exists: a module, or an attribute chain on one."""
    import re

    names = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + sorted(
        f"docs/{p.name}" for p in (REPO / "docs").glob("*.md")
    )
    refs = {
        (name, ref)
        for name in names
        for ref in re.findall(r"`(repro(?:\.\w+)+)", _read(name))
    }
    assert len(refs) >= 50, f"reference parse found only {len(refs)}"
    broken = []
    for name, ref in sorted(refs):
        try:
            _resolve_dotted(ref)
        except (ImportError, AttributeError):
            broken.append(f"{name}: {ref}")
    assert not broken, f"doc references that do not resolve: {broken}"

