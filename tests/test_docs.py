"""The prose documents name only source files that exist.

DESIGN.md, README.md and EXPERIMENTS.md point readers at modules,
tests and scripts by path. A path that names no file sends a reader
looking for code that is not there, so every one must resolve: paths
under ``repro/`` against ``src/``, the others against the repository
root. PAPER.md is the supplied paper text and is not checked.
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("DESIGN.md", "README.md", "EXPERIMENTS.md")
PATH = re.compile(r"(?:src/)?(?:repro|tests|benchmarks|bench)/[\w/]+\.py")


def test_docs_name_only_files_that_exist():
    checked, missing = 0, []
    for doc in DOCS:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as f:
            paths = set(PATH.findall(f.read()))
        for path in sorted(paths):
            rel = "src/" + path if path.startswith("repro/") else path
            checked += 1
            if not os.path.isfile(os.path.join(ROOT, rel)):
                missing.append(f"{doc}: {path}")
    assert checked, "no source paths found in the documents"
    assert not missing, missing
