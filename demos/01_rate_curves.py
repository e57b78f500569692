"""Key-rate curves under symmetric disturbance.

Walks the final rate 1 - h(2e) - h(e) and the one-way comparator 1 - 2 h(e)
across the disturbance range, then pins down where each curve hits zero.
"""

import numpy as np

from dqkd.rates import binary_entropy, final_rate


def two_way(e: float) -> float:
    return 1.0 - binary_entropy(2.0 * e) - binary_entropy(e)


def comparator(e: float) -> float:
    return 1.0 - 2.0 * binary_entropy(e)


def bisect(f, lo: float, hi: float) -> float:
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def main() -> None:
    print(f"{'e':>6} {'xi':>6} {'r_pa':>9} {'r_final':>9} {'comparator':>11}")
    for e in np.linspace(0.0, 0.12, 13):
        report = final_rate(1.0 - 2.0 * e, e)  # symmetric channel: xi = 1 - 2e
        print(
            f"{e:6.3f} {report.xi:6.3f} {report.r_pa:9.5f} "
            f"{report.r_final_raw:9.5f} {report.r_bb84:11.5f}"
        )

    print()
    print(f"two-way curve reaches zero at  e = {bisect(two_way, 0.05, 0.10):.8f}")
    print(f"comparator reaches zero at     e = {bisect(comparator, 0.08, 0.13):.8f}")
    print()
    print("the two-way curve dies first: the encoded bit crosses the channel")
    print("twice, so the same disturbance is paid for once more in privacy")
    print("amplification than a one-way protocol would pay")


if __name__ == "__main__":
    main()
