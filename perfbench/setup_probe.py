"""Set-up time of one fresh process: import fusionframes and its cli, parse every document.

Usage: python3 setup_probe.py SRC_DIR DOC... ; prints the seconds taken.
"""

import sys
import time

src, docs = sys.argv[1], sys.argv[2:]
sys.path.insert(0, src)
t0 = time.perf_counter()
import fusionframes  # noqa: E402
import fusionframes.cli as cli  # noqa: E402

for doc in docs:
    cli.parse_document(doc)
elapsed = time.perf_counter() - t0
if not fusionframes.__file__.startswith(src):
    sys.exit(f"fusionframes was imported from {fusionframes.__file__}, not from {src}")
print(repr(elapsed))
