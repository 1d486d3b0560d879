"""Additivity of coded rates: joint = plain + conditional, up to overhead.

Coding the pair sequence (alpha_i, omega_i) jointly costs what coding the
driving word plus coding the orbit name given the driving word costs; the
residual of the three coded rates vanishes up to per-block rounding.
Each setting's name is sampled once; both tables read its one report.
"""

from fiberlab import BlockCodebookFamily, ar_decomposition_check, emit_name, sample_trajectory, system_preset

settings = (
    ("free-monoid-uniform", 2 ** 16, 8),
    ("z2-uniform", 10 ** 5, 8),
    ("f2-markov", 10 ** 5, 10),
)
reports = {}
for preset, n, k in settings:
    driving, fiber = system_preset(preset)
    name = emit_name(fiber, sample_trajectory(driving, n, seed=11), seed=11)
    reports[preset] = ar_decomposition_check(name, BlockCodebookFamily(k, fiber, driving))
print(f"{'system':>20}  {'joint':>7}  {'plain':>7}  {'cond':>7}  {'residual':>9}")
for preset, report in reports.items():
    print(
        f"{preset:>20}  {report.joint_rate:>7.4f}  {report.plain_rate:>7.4f}  "
        f"{report.conditional_rate:>7.4f}  {report.residual:>9.2e}"
    )
print()
print("ideal (un-rounded) rates drop the ceil overhead:")
for preset, report in reports.items():
    print(
        f"{preset:>20}  joint {report.joint_ideal_rate:.4f} = "
        f"plain {report.plain_ideal_rate:.4f} + conditional {report.conditional_cross_rate:.4f} "
        f"+ {report.joint_ideal_rate - report.plain_ideal_rate - report.conditional_cross_rate:.2e}"
    )
