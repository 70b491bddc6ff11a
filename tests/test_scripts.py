"""The shipped scripts, the README's library and command-line examples and the
benchmark's declared layer names, checked against the package as it is.

The expected stdout and file digests were taken from the scripts before their
settings became module constants; any change to a script's output shows here.
"""

import hashlib
import importlib
import json
import re
import runpy
import shlex
from pathlib import Path

import pytest

from cvtfractals.cli import run

ROOT = Path(__file__).resolve().parents[1]

REPRODUCE_STDOUT = """\
base  closed form  increment    box count      fit    cells
   2     1.584963                1.584963   1.0000     6561
   3     1.630930   0.045967     1.630930   1.0000     7776
   4     1.660964   0.030034     1.660964   1.0000    10000
   5     1.682606   0.021642     1.682606   1.0000    50625
wrote OUT/fractal_base2.pbm and OUT/table_base2.pgm
wrote OUT/fractal_base3.pbm and OUT/table_base3.pgm
wrote OUT/fractal_base4.pbm and OUT/table_base4.pgm
wrote OUT/fractal_base5.pbm and OUT/table_base5.pgm
overlay 2->3: claimed 1.584963, measured 1.000000 -> OUT/overlay_2_to_3.txt
overlay 3->4: claimed 1.584963, measured 1.000000 -> OUT/overlay_3_to_4.txt
melody: 365 notes -> OUT/demo.mid
"""

REPRODUCE_FILES = {
    "demo.mid": "53b8f1f740963c4e78ecb9a7a117177cd6a7540a1b2ae01e8326dccf9c75e06f",
    "demo_notes.csv": "9c8ef190922c1e766c96f1037a62150194f95f5bd1e257cb04cf411591742034",
    "fractal_base2.pbm": "1f37cd9c61cb79e548272611dcc88541f170983a2c15bbbdcbb37107e786dbdd",
    "fractal_base3.pbm": "59bb4a67b9006a3c1136a505c2a4638aed12ccc63aa28e6b18a3571da7127374",
    "fractal_base4.pbm": "b2c1dfcc20c7f88f9bf684a737d2260f8ed9ed1ec5e011729adb6e774d5a616e",
    "fractal_base5.pbm": "d767615be83543831bed4068012908fc83aaa737feeef1df735cf2bfe0707e3b",
    "overlay_2_to_3.txt": "be5cf7011e2380fc02664141b4f4b9e0c9c466f1e0a36c3c8548a5e4c17005c4",
    "overlay_3_to_4.txt": "8c06ac87b3db9bd58450e4c5c2786f924a010ccdf5ba959c78525e3d42949c57",
    "table_base2.pgm": "4eeffba9ddd750e6b46cd4da40eaabff988d35c14d75712fdac4616d836d6797",
    "table_base3.pgm": "17653bc21678a58e5a31e2bad371aa177979e1038a22a8e3095ff874e8fa5373",
    "table_base4.pgm": "a536b5f3b211e548c38e31e142441e306373401930cc0eb5a1bee40b847a7ee6",
    "table_base5.pgm": "2edbe7e6b5700531bcaf1dc782fe111e4834ae5a37ace9c32722fe981ba612bf",
}

SWEEP_STDOUT = """\
base depth  dimension  notes beta(all)
   2     7   1.584963   1094     1.498
   2     8   1.584963   3281     1.520
   3     5   1.630930   3111     1.611
   4     4   1.660964   3334     1.656
   5     4   1.682606  14465     1.653
"""

SWEEP_FILES = {
    "melody_base2_depth7.mid": "e8f444c0a98fb653adfff8aa179e8a714e53b363a77336246f8b8daba36e1357",
    "melody_base2_depth8.mid": "c99b4e674497852b3ffff9c7d868eb9103aa2d539b050fe343f2fa385f6b50e6",
    "melody_base3_depth5.mid": "086e98b1f35008df2734d8211f305cabc13ea2236f809685a4b8c1e60a9defc7",
    "melody_base4_depth4.mid": "bf9894a51a36a264fac02da2ac0fa8f5cdfae9e821676b3c35041585b1b48b4f",
    "melody_base5_depth4.mid": "16aab54a91a823e9e3327246c86353566117c5a71a18570d4f8b3cb7b3d2860a",
}


@pytest.mark.parametrize("script,stdout,files", [
    ("reproduce_results.py", REPRODUCE_STDOUT, REPRODUCE_FILES),
    ("melody_sweep.py", SWEEP_STDOUT, SWEEP_FILES),
], ids=["reproduce_results", "melody_sweep"])
def test_script_output_is_pinned(capsys, tmp_path, script, stdout, files):
    main = runpy.run_path(str(ROOT / "scripts" / script))["main"]
    assert main(["--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.replace(str(tmp_path), "OUT") == stdout
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == files


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert {p.name for p in tmp_path.iterdir()} == {"base3.pbm", "base3.mid"}


def test_readme_command_examples_run(capsys, tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "cvtfractals" for argv in commands)
    monkeypatch.chdir(tmp_path)
    # a non-degenerate series long enough for the spectrum fit
    (tmp_path / "series.csv").write_text("".join(f"{i * 37 % 11 - 5}\n" for i in range(128)))
    for argv in commands:
        assert run(argv[1:]) == 0, argv


def test_melody_sweep_refuses_unknown_scale_before_writing(capsys, tmp_path):
    main = runpy.run_path(str(ROOT / "scripts" / "melody_sweep.py"))["main"]
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["--outdir", str(outdir), "--scale", "dorian"])
    assert exc.value.code == 2
    assert "invalid choice: 'dorian'" in capsys.readouterr().err
    assert not outdir.exists()


def _declared_functions():
    """(layer, function) of every `<layer>.<function>.s` per-layer metric in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    parts = [metric["name"].split(".") for metric in declared]
    return [pytest.param(p[0], p[1], id=f"{p[0]}.{p[1]}")
            for p in parts if len(p) == 3 and p[2] == "s"]


@pytest.mark.parametrize("layer,function", _declared_functions())
def test_benchmark_layer_function_exists(layer, function):
    # the traced benchmark fails when a declared layer function is missing
    assert callable(getattr(importlib.import_module(f"cvtfractals.{layer}"), function, None))
