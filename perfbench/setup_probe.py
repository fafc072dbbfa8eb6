"""Set-up cost of elastic_dtn in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR DIMENSION TRUNCATION

Times ``import elastic_dtn`` and the first-use lookup tables of one chart
shape (monomial basis, multiplication table, one differentiation table per
variable, product scratch buffers): the work every CLI call pays before
its first jet product.  Prints one JSON object.
"""

import json
import sys
import time

start = time.perf_counter()
src, dimension, truncation = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.path.insert(0, src)

import elastic_dtn  # noqa: E402

imported = time.perf_counter()
from elastic_dtn.jets import Jet, JetContext  # noqa: E402

context = JetContext(dimension, truncation, [1.0] * (dimension - 1))
context.mul_table()
for var in range(context.nvars):
    context.diff_table(var)
Jet.constant(context, 1.0) * Jet.constant(context, 1.0)
end = time.perf_counter()

print(json.dumps({
    "module": elastic_dtn.__file__,
    "import_s": imported - start,
    "tables_s": end - imported,
    "setup_s": end - start,
}))
