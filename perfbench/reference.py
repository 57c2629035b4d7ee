"""A fixed amount of work that measures the machine's speed, not paneleff's.

run.py starts this script after every paneleff process it times. The host
of a small virtual machine can run the same code up to twice as fast or as
slow from one minute to the next, depending on its neighbours' load; dividing
each paneleff time by the times of this script just before and after it
cancels that drift. The work resembles the program's: an interpreter start,
the numpy import, interpreted loops over small arrays (like the simplex
pivots and the bootstrap resamples) and a little CSV and JSON text
handling. It never imports paneleff, so no change to the program moves it.
"""

import csv
import io
import json

import numpy as np


def main() -> None:
    rng = np.random.default_rng(12345)
    tableau = rng.uniform(1.0, 2.0, (12, 40))
    total = 0.0
    for step in range(3000):
        row = step % 12
        col = int(np.argmax(tableau[row]))
        pivot = tableau[:, col] / tableau[row, col]
        tableau -= 1e-6 * np.outer(pivot, tableau[row])
        total += float(tableau[row, col])
    data = rng.normal(size=(200, 6))
    for _ in range(300):
        sample = data[rng.integers(0, 200, 200)]
        sample = (sample - sample.mean(axis=0)) / sample.std(axis=0)
        total += float(np.linalg.solve(sample.T @ sample + np.eye(6), sample.T @ sample[:, 0])[0])
    text = io.StringIO()
    writer = csv.writer(text)
    for i in range(4000):
        writer.writerow([f"D{i % 40:02d}", 2000 + i % 10, i * 0.5, i * 0.25])
    rows = list(csv.reader(io.StringIO(text.getvalue())))
    total += sum(float(r[2]) for r in rows)
    json.loads(json.dumps({"rows": rows[:1000], "total": total}))
    if not np.isfinite(total):
        raise SystemExit("reference work produced a non-finite total")


if __name__ == "__main__":
    main()
