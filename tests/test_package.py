"""The package namespace: the verify path is imported eagerly, the
sequence-analysis layer (finlen, koszul, sequences) on first use.

Each check runs in a fresh interpreter, so no earlier test (in any file
order) can have loaded the lazy modules already."""
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
LAZY_MODULES = ("ulrich_forge.finlen", "ulrich_forge.koszul", "ulrich_forge.sequences")


def run(code: str):
    """The JSON value that `code` prints last, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_leaves_the_analysis_layer_unloaded():
    loaded = run("import json, sys\n"
                 "import ulrich_forge, ulrich_forge.cli\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('ulrich_forge'))))")
    assert not set(LAZY_MODULES) & set(loaded)
    # the verify path: the package, cli and the thirteen modules under them
    assert len(loaded) == 15


def test_verify_subcommand_leaves_the_analysis_layer_unloaded():
    loaded = run("import json, sys\n"
                 "from ulrich_forge import cli\n"
                 "assert cli.main(['verify-35', '--n', '2']) == 0\n"
                 "print(json.dumps(sorted(sys.modules)))")
    assert not set(LAZY_MODULES) & set(loaded)


def test_koszul_and_analyze_subcommands_load_the_analysis_layer():
    # analyze exits 3: three indices are only finite-index evidence
    for argv, code in ((["koszul", "--module", "cyclic(x*y)", "--sop", "x,y"], 0),
                       (["analyze", "--family", "freeplus ideal=(x,y) growth=n",
                         "--range", "1..3"], 3)):
        loaded = run("import json, sys\n"
                     "from ulrich_forge import cli\n"
                     f"assert cli.main({argv!r}) == {code}\n"
                     "print(json.dumps(sorted(sys.modules)))")
        assert set(LAZY_MODULES) <= set(loaded), argv


def test_each_lazy_name_is_its_submodules_attribute():
    mismatched = run("import importlib, json\n"
                     "import ulrich_forge\n"
                     "bad = []\n"
                     "for name, module in ulrich_forge._LAZY.items():\n"
                     "    sub = importlib.import_module('ulrich_forge.' + module)\n"
                     "    want = sub if name == module else getattr(sub, name)\n"
                     "    if getattr(ulrich_forge, name) is not want or vars(ulrich_forge)[name] is not want:\n"
                     "        bad.append(name)\n"
                     "print(json.dumps(bad))")
    assert mismatched == []


def test_submodule_names_resolve_after_a_bare_import():
    names = run("import json\n"
                "import ulrich_forge\n"
                "print(json.dumps([ulrich_forge.finlen.__name__, ulrich_forge.koszul.__name__,\n"
                "                  ulrich_forge.sequences.__name__]))")
    assert names == list(LAZY_MODULES)


def test_unknown_name_raises_attribute_error_naming_the_module():
    result = run("import json\n"
                 "import ulrich_forge\n"
                 "try:\n"
                 "    ulrich_forge.no_such_name\n"
                 "except AttributeError as exc:\n"
                 "    print(json.dumps(str(exc)))\n")
    assert result == "module 'ulrich_forge' has no attribute 'no_such_name'"


def test_star_import_yields_every_name_in_all():
    result = run("import json\n"
                 "import ulrich_forge\n"
                 "eager = sorted(n for n in vars(ulrich_forge) if not n.startswith('_'))\n"
                 "namespace = {}\n"
                 "exec('from ulrich_forge import *', namespace)\n"
                 "namespace.pop('__builtins__')\n"
                 "print(json.dumps([ulrich_forge.__all__, sorted(namespace), eager,\n"
                 "                  dir(ulrich_forge)]))")
    names, starred, eager, listed = result
    assert len(set(names)) == len(names)
    assert sorted(names) == starred
    # every public name bound by the eager imports is exported as well
    assert set(eager) <= set(names)
    assert set(names) <= set(listed)
    assert {"analyze", "koszul_monomial_R", "FiniteLengthModule", "sequences"} <= set(names)
