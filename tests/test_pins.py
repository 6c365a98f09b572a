"""Every pinned CLI run in tests/pins.json: argv and env in, exit code and bytes out.

pins.json is a list of groups, each a "why" and its "pins".  A pin gives
argv, env (EIG_MAX_T is unset unless env sets it), the exit code and one of:
- stdout_sha256: stderr is empty and stdout has this SHA-256;
- stderr: stdout is empty and stderr is exactly this text;
- usage_error: stdout is empty and stderr is one line starting "error: " that
  names each listed word in quotes (argparse words the rest).
A pin with peak_mb runs `python -m eigraph.cli ARGV --output FILE` in a child
whose peak resident set must stay under peak_mb; the others run in process
through cli.main.  Under `python -O` the child runs with -O too.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from eigraph.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS = [pin for group in json.loads((ROOT / "tests/pins.json").read_text()) for pin in group["pins"]]
OUTCOMES = ("stdout_sha256", "stderr", "usage_error")

# Spawns argv[1:] and prints its exit code and peak RSS in KiB.  On Linux a
# spawned child's peak starts at its parent's, so the test process, which
# may be large, spawns this small launcher to spawn the pinned command.
LAUNCHER = """import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _pin_id(pin):
    return " ".join([*(f"{k}={v}" for k, v in pin.get("env", {}).items()), *pin["argv"]])


def _run_in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err


def _run_child(argv, path):
    """Exit code, output file bytes, stderr and peak MB of the command alone."""
    python = [sys.executable, *["-O"] * sys.flags.optimize]
    command = [*python, "-m", "eigraph.cli", *argv, "--output", str(path)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    launcher = [sys.executable, "-I", "-S", "-c", LAUNCHER, *command]
    run = subprocess.run(launcher, env=env, capture_output=True, text=True, check=True)
    code, peak_kib = map(int, run.stdout.split())
    return code, path.read_bytes() if path.exists() else b"", run.stderr, peak_kib / 1024


@pytest.mark.parametrize("pin", PINS, ids=map(_pin_id, PINS))
def test_pin(pin, capsys, monkeypatch, tmp_path):
    monkeypatch.delenv("EIG_MAX_T", raising=False)
    for name, value in pin.get("env", {}).items():
        monkeypatch.setenv(name, value)
    if "peak_mb" in pin:
        code, out, err, peak_mb = _run_child(pin["argv"], tmp_path / "out")
        assert peak_mb < pin["peak_mb"], f"peaked at {peak_mb:.1f} MB"
    else:
        code, out, err = _run_in_process(pin["argv"], capsys)
    assert code == pin["exit"], err
    if "stdout_sha256" in pin:
        assert (hashlib.sha256(out).hexdigest(), err) == (pin["stdout_sha256"], "")
    elif "stderr" in pin:
        assert (out, err) == (b"", pin["stderr"])
    else:
        assert out == b"" and err.startswith("error: ") and err.count("\n") == 1, err
        assert err.endswith("\n") and all(f"'{word}'" in err for word in pin["usage_error"]), err


def test_every_pin_is_well_formed():
    # a misspelt key would drop its check silently; an id names one run
    allowed = {"argv", "env", "exit", "peak_mb", *OUTCOMES}
    for pin in PINS:
        assert set(pin) <= allowed and sum(key in pin for key in OUTCOMES) == 1, pin
        assert "--output" not in pin["argv"] and isinstance(pin["exit"], int), pin
    ids = list(map(_pin_id, PINS))
    assert len(set(ids)) == len(ids)


def test_workflow_holds_no_pin():
    # the pins live in pins.json; the workflow only runs them
    text = (ROOT / ".github/workflows/tests.yml").read_text()
    assert not re.search("[0-9a-fA-F]{64}", text) and "<<" not in text
