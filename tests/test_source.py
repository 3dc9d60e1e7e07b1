"""Rules the package source keeps."""

import ast
from pathlib import Path

import unkloc
from unkloc import noise, sampling

SOURCE = Path(unkloc.__file__).resolve().parent


def test_the_package_checks_with_raises_not_asserts():
    # python -O strips assert statements, and with them any check they make
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in {found}"


def test_the_cli_runs_trials_only_through_experiments():
    # estimate and detect are one sweep trial: experiments.simulate builds
    # its streams, trace and readings, experiments.estimate picks the
    # bandwidth and experiments.detect sets the detector.  The CLI naming a layer function would be a second copy.
    layers = {"spawn_rngs", "generate_trace", "acquire", "BandwidthConfig", "detect_bandwidth",
              "estimate_field"}
    tree = ast.parse((SOURCE / "cli.py").read_text())
    named = {alias.name.rpartition(".")[2] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not named & layers, f"cli.py names {sorted(named & layers)}"


def test_only_the_field_mirrors_conjugates():
    # BandlimitedField.from_half is the one conjugate mirror, so a zero
    # mirrors to +0j by one rule wherever a field is built from its half
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py")) if path.name != "field.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("conj", "conjugate")]
    assert not found, f"conjugates taken in {found}"


def test_only_the_phase_builder_calls_exp_cos_and_sin():
    # field.phase is the one place a unit phase is built, so every phase
    # vector rounds by one rule: cos and sin written into one complex vector
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        builder = set()
        if path.name == "field.py":
            builder = {id(node) for top in tree.body
                       if isinstance(top, ast.FunctionDef) and top.name == "phase" for node in ast.walk(top)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")
                  and node.func.attr in ("exp", "cos", "sin") and id(node) not in builder]
    assert not found, f"np.exp, np.cos or np.sin called in {found}"


def test_only_the_sampling_hash_makes_seeds():
    # sampling writes numpy's SeedSequence hash once, for one cell and for a
    # sweep worker's cells at one n, and keys every Philox stream by re-keying
    # it, so no module builds a SeedSequence of its own or registers a
    # stand-in for one as an ISeedSequence; the tests keep numpy's as the
    # reference
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and (
                      isinstance(node.func, ast.Attribute) and node.func.attr == "SeedSequence"
                      or isinstance(node.func, ast.Name) and node.func.id == "SeedSequence")]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and any(alias.name == "SeedSequence" for alias in node.names)]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "ISeedSequence"
                  or isinstance(node, ast.Name) and node.id == "ISeedSequence"
                  or isinstance(node, ast.ImportFrom) and any(alias.name == "ISeedSequence" for alias in node.names)]
    assert not found, f"SeedSequence used in {found}"


def test_only_the_cell_runner_seeds_and_keys_streams():
    # a sweep worker and a replay run their cells through _run_cells, so a
    # replayed row matches its sweep row by construction; a second caller
    # of the hash or of the re-keying in experiments.py would be a second
    # path that only tests keep in step with the first
    tree = ast.parse((SOURCE / "experiments.py").read_text())
    runner = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == "_run_cells" for node in ast.walk(top)}
    found = [f"experiments.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("trial_seed", "stream_keys", "rekey") and id(node) not in runner]
    assert runner and not found, f"seeds or stream keys made outside _run_cells in {found}"


def test_only_the_row_iterator_builds_trial_rows():
    # a sweep holds a seed array and a value matrix; ExperimentResult._rows
    # builds the rows from them a chunk at a time, for .rows and the rows
    # CSV, so no Python row per cell can creep back into run
    found, iterators = [], 0
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        tops = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_rows"]
        iterators += len(tops)
        inside = {id(node) for top in tops for node in ast.walk(top)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside and (
                      isinstance(node.func, ast.Name) and node.func.id == "TrialRow"
                      or isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
                      and node.func.value.id == "TrialRow")]
    assert iterators == 1 and not found, f"TrialRow built in {found}"


def test_no_module_imports_a_process_pool():
    # a sweep forks its workers with os.fork and reads their outcomes from
    # pipes; a pool would pickle the config, the truth and the cells into
    # each worker, and its modules cost every start-up about 14 ms
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                          else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
             if name.partition(".")[0] in ("multiprocessing", "concurrent")]
    assert not found, f"process pool modules imported in {found}"


def test_no_module_imports_scipy():
    # a slope fit computes its t quantile itself, correctly rounded; scipy.stats
    # cost a sweep about 70 MiB and 1.4 s to import, and its bits follow the
    # installed version.  numpy is the package's one runtime dependency
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                          else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
             if name.partition(".")[0] == "scipy"]
    assert not found, f"scipy imported in {found}"


def test_one_sampling_function_draws_spacings_and_one_checks_trace_order():
    # generate_traces draws through one spacing loop, for a chunk of cells
    # and for generate_trace's one row, and _check is the one scan of a
    # trace's order, for generated traces and for a SampleTrace built by
    # hand; a second loop or scan would be a second path that only tests
    # keep in step
    tree = ast.parse((SOURCE / "sampling.py").read_text())

    def shifted(node):  # a[..., 1:] > a[..., :-1]: two slices of one array compared
        sides = [node.left, *node.comparators]
        return all(isinstance(side, ast.Subscript) and any(isinstance(part, ast.Slice) for part in ast.walk(side.slice))
                   for side in sides) and len({ast.dump(side.value) for side in sides}) == 1

    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    drawing = [getattr(f, "name", "lambda") for f in functions
               if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_draw_block"
                      for node in ast.walk(f))]
    ordering = [getattr(f, "name", "lambda") for f in functions
                if any(isinstance(node, ast.Compare) and shifted(node) for node in ast.walk(f))]
    assert len(drawing) == 1 and len(ordering) == 1, f"spacings drawn in {drawing}, order scanned in {ordering}"


def test_no_comparison_names_a_family():
    # a renewal or noise family's rules live in its row of the law table in
    # sampling.py or noise.py; a value tested against a family name
    # elsewhere would be a second place that knows that family
    names = set(sampling.FAMILIES) | set(noise.FAMILIES)
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Compare)
                  and any(isinstance(leaf, ast.Constant) and leaf.value in names
                          for side in (node.left, *node.comparators) for leaf in ast.walk(side))]
    assert not found, f"family names compared in {found}"
