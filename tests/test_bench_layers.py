import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import jsonschema

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_layers.py"
COMMITTED = ROOT / "BENCH_36.json"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_table_at_t34_matches_the_committed_results(tmp_path):
    tool = _tool()
    committed = json.loads(COMMITTED.read_text())
    jsonschema.validate(committed, tool.SCHEMA)
    cells = {(c["layer"], tuple(c["args"])): c for c in committed["cells"]}
    # every layer at every fixed size, and both factorings of the window
    want = {(layer, (n,)) for layer in tool.LAYERS for n in tool.SIZES.values()}
    want |= {(layer, tool.WINDOW) for layer in tool.WINDOW_LAYERS}
    assert set(cells) == want
    assert cells["factor_range", tool.WINDOW]["digest"] == cells["factor_window", tool.WINDOW]["digest"]

    out = tmp_path / "t34.json"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--sizes", "34", "--out", str(out)],
        check=True,
        capture_output=True,
    )
    fresh = json.loads(out.read_text())
    jsonschema.validate(fresh, tool.SCHEMA)
    assert [(c["layer"], c["args"], c["T"], c["repeats"]) for c in fresh["cells"]] == [
        (layer, [1260], 34, tool.REPEATS) for layer in tool.LAYERS
    ]
    for cell in fresh["cells"]:
        assert cell["digest"] == cells[cell["layer"], (1260,)]["digest"], cell["layer"]
        assert cell["min_ms"] <= cell["median_ms"]
    compared = subprocess.run(
        [sys.executable, str(SCRIPT), "--compare", str(COMMITTED), str(out)],
        capture_output=True,
        text=True,
    )
    assert compared.returncode == 0, compared.stdout
    assert compared.stdout.count("T = 34") == len(tool.LAYERS)
