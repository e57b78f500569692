"""A tour of the reference attacks.

For each named attack: the observable fidelities, the margin xi, the
eigenvalues of the averaged qubit-ancilla state, and what they cost Eve.
"""

from dqkd.attack import forward_fidelities, named_attack
from dqkd.keyrate import s_be_numeric
from dqkd.rates import be_spectrum_closed_form, final_rate


def show(title: str, params) -> None:
    f = forward_fidelities(params)
    xi = f.xi
    print(title)
    print(f"  fidelities       f0={f.f0:.4f} f1={f.f1:.4f} "
          f"f+={f.fplus:.4f} f-={f.fminus:.4f}")
    print(f"  margin           xi = {xi:.4f}")
    spectrum = be_spectrum_closed_form(params).spectrum()
    print(f"  state spectrum   {' '.join(f'{x:.4f}' for x in spectrum)}")
    print(f"  Eve's entropy    {s_be_numeric(params):.4f} bits "
          f"(1 = she learned nothing, 2 = she can know everything)")
    report = final_rate(xi, 0.0)
    verdict = "abort" if report.aborted else f"r_pa = {report.r_pa:.4f}"
    print(f"  protocol         {verdict}")
    print()


def main() -> None:
    show("identity: Eve stays out of the channel", named_attack("identity"))
    show("measure_z: Eve measures every probe in the computational basis",
         named_attack("measure_z"))
    show("measure_x: Eve measures every probe in the diagonal basis",
         named_attack("measure_x"))
    for e in (0.05, 0.15, 0.25):
        show(f"symmetric(e={e}): optimal balanced attack at disturbance {e}",
             named_attack("symmetric", e=e))

    print("the measurement attacks reach full information (entropy 2) but")
    print("leave xi at the 1/2 boundary, where the key rate is already zero;")
    print("milder symmetric attacks trade information for stealth along")
    print("S = 1 + h(xi), which is exactly what privacy amplification erases")


if __name__ == "__main__":
    main()
