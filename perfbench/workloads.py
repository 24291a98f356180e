"""The benchmark's workloads: the ``corkcalc verify`` calls each one makes.

Every grid is an exhaustive ``{*,0}`` grid, so a workload draws no random
inputs. Each call's expected case count comes from a closed form over the
grid, not from the engine's own output. Grids stay inside the shipped data
(``E``/fronts n <= 6, m <= 3; surfaces l <= 4).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Call:
    suite: str
    n_max: int | None = None
    m_max: int | None = None
    jobs: int = 1

    def argv(self, out: str) -> list[str]:
        args = ["verify", self.suite]
        if self.n_max is not None:
            args += ["--n-max", str(self.n_max)]
        if self.m_max is not None:
            args += ["--m-max", str(self.m_max)]
        if self.jobs != 1:
            args += ["--jobs", str(self.jobs)]
        return args + ["-o", out]

    def grid(self) -> dict:
        return {"suite": self.suite, "n_max": self.n_max, "m_max": self.m_max,
                "jobs": self.jobs, "expected_cases": expected_cases(self)}


def expected_cases(call: Call) -> int:
    """Closed-form case count of one ``verify`` call."""
    n, m = call.n_max, call.m_max
    if call.suite == "lemma-2-2":
        return m * (2 ** (n + 1) - 2)
    if call.suite == "lemma-3-4-scripts":
        return m * sum((2 ** k - 2) * (k + 1) for k in range(2, n + 1))
    if call.suite == "cork-order":
        return 2 ** (n + 1)
    if call.suite == "w-family":
        return m * (n * n - 1)
    if call.suite == "thm-1-7-arith":
        return 20
    raise ValueError(f"no closed-form case count for suite {call.suite!r}")


# Why each workload exists, and which layers it isolates, is in README.md.
WORKLOADS: dict[str, tuple[Call, ...]] = {
    "scripts": (Call("lemma-3-4-scripts", n_max=7, m_max=1),),
    "contractibility": (Call("lemma-2-2", n_max=10, m_max=2),),
    "forms": (Call("w-family", n_max=11, m_max=1), Call("thm-1-7-arith")),
    "pooled": (Call("cork-order", n_max=13, jobs=2),
               Call("lemma-2-2", n_max=10, m_max=2, jobs=2)),
}
