#!/usr/bin/env python
"""Figure 1, executed: a set can be timely while none of its members is.

Reproduces the paper's introductory example.  The schedule is
``S = [(p1 · q)^i (p2 · q)^i]`` for growing ``i``: process ``q`` keeps running,
while ``p1`` and ``p2`` take turns carrying the set ``{p1, p2}``, each of them
disappearing for longer and longer stretches.

The script prints the observed minimal timeliness bounds on growing prefixes
(experiment E1) and the full pairwise timeliness matrix of a long prefix.

Run:  python examples/figure1_set_timeliness.py
"""

from repro import Figure1Generator, analyze_timeliness
from repro.analysis.experiment import run_experiment
from repro.analysis.reporting import ascii_table
from repro.analysis.timeliness_matrix import pairwise_timeliness


def main() -> None:
    headers, rows = run_experiment("e1", blocks=(2, 4, 8, 16, 32))
    print(
        ascii_table(
            headers,
            rows,
            title="E1 — observed minimal timeliness bounds on prefixes of the Figure 1 schedule",
        )
    )
    print()
    print("Reading: the {p1} and {p2} bounds grow with the prefix (no single bound")
    print("can ever witness their timeliness), while the bound of the *set* {p1, p2}")
    print("stays at 2 — the set is timely with respect to {q} even though neither")
    print("member is.")
    print()

    generator = Figure1Generator()
    prefix = generator.generate(generator.steps_for_blocks(20))
    matrix = pairwise_timeliness(prefix)
    print(
        ascii_table(
            ["P \\ Q"] + [f"Q={{{q}}}" for q in range(1, 4)],
            matrix.rows(),
            title=f"Pairwise timeliness bounds over {len(prefix)} steps (p1=1, p2=2, q=3)",
        )
    )
    print()
    virtual = prefix.restricted_to({1, 2})
    print(
        "Virtual-process view: erasing the indices of p1 and p2 leaves "
        f"{len(virtual)} steps of the virtual process p, which alternates with q "
        f"(set bound {analyze_timeliness(prefix, {1, 2}, {3}).minimal_bound})."
    )


if __name__ == "__main__":
    main()
