"""Helpers shared by the child runner and the reference recorder."""

from __future__ import annotations

import io
import json
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, List, Tuple

# keys of a `verify --json` report that change from run to run
VOLATILE_KEYS = ("elapsed_seconds", "generated_at")
# exit code recorded when a request raises instead of returning one
EXIT_RAISED = -1


def request_key(argv: List[str]) -> str:
    return " ".join(argv)


def call(main: Callable, argv: List[str]) -> Tuple[int, str, float]:
    """One in-process request: (exit code, captured stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - a raising request is a failed request
        rc = EXIT_RAISED
        out.write(traceback.format_exc())
    return rc, out.getvalue(), time.perf_counter() - start


def normalize(text: str):
    """The comparable part of one output: its JSON minus volatile keys."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return {"unparsable_output": text}
    if isinstance(doc, dict):
        for key in VOLATILE_KEYS:
            doc.pop(key, None)
    return doc
