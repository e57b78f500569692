"""Eve's best attack at fixed observable fidelities.

Alice and Bob see only the four check fidelities. This script builds the
attack that maximizes Eve's entropy under those observations, cross-checks
its entropy by brute-force diagonalization, and compares it with the proven
closed-form ceiling 1 + h(xi).
"""

from dqkd.attack import forward_fidelities
from dqkd.keyrate import s_be_numeric
from dqkd.optimizer import FidelityConstraint, maximize_s_be


def main() -> None:
    cases = [
        (1.00, 1.00, "clean channel: Eve must stay out entirely"),
        (1.00, 0.75, "computational basis untouched, diagonal basis damped"),
        (0.90, 0.90, "balanced 10% disturbance"),
        (0.85, 0.95, "asymmetric disturbance"),
    ]
    for c0sq, cppsq, label in cases:
        result = maximize_s_be(FidelityConstraint(c0sq=c0sq, cppsq=cppsq))
        best = result.best_params
        f = forward_fidelities(best)
        print(label)
        print(f"  observed         f01 = {c0sq:.4f}, fpm = {cppsq:.4f} "
              f"(xi = {cppsq - (1 - c0sq):.4f})")
        print(f"  entropy          S = {result.best_entropy:.10f} (closed-form spectrum)")
        print(f"  diagonalized     S = {s_be_numeric(best):.10f}")
        print(f"  ceiling 1+h(xi)  S = {result.closed_form_entropy:.10f}")
        print(f"  gap              {result.gap:.2e}")
        print(f"  maximizer        p = {best.p:.6f}  q = {best.q:.6f}")
        print(f"  reproduces       f01 = {f.f01:.6f}, fpm = {f.fpm:.6f}")
        print()

    print("every maximizer lands on S = 1 + h(xi): the protocol's privacy")
    print("amplification fraction h(xi) is neither loose nor optimistic")


if __name__ == "__main__":
    main()
