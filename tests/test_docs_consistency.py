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
    """Every `from repro...` line in docs/API.md resolves."""
    import re

    api = _read("docs/API.md")
    for line in re.findall(r"^from repro[\w.]* import .+$", api, re.MULTILINE):
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
