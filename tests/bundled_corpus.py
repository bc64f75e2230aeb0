"""The specs of the bundled corpus file, read once for every test that runs
over them."""

import json

from feitlab import runner

CORPUS = tuple(json.loads(runner.BUNDLED_CORPUS.read_text())["entries"])
