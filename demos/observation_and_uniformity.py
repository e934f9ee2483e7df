"""Tour: what the agents can and cannot tell apart.

The compiled games give agents 1 and 2 a single observable bit each.
That makes very different branches look identical to them, which is
exactly what forces their strategies to copy information from one
branch to another.
"""

from atlir.cgs import obs_equiv_histories, obs_equiv_states
from atlir.reduction import S_GEN, S_INIT, build_cgs, simulating_strategy
from atlir.comptree import outcomes
from atlir.strategies import is_uniform
from atlir.turing import TuringMachine

machine = TuringMachine(
    states={"q0", "q1"},
    alphabet={"B", "a"},
    q0="q0",
    blank="B",
    delta={("q0", "B"): ("q1", "a", "R"), ("q1", "B"): ("q1", "a", "R")},
)
rc = build_cgs(machine)
g = rc.cgs

print("Agent 1 only sees p1, so it distinguishes the cell spawner from")
print("everything else and nothing more:")
print("  s_gen ~1 s_tr :", obs_equiv_states(g, 1, S_GEN, "s_tr"))
print("  s_tr  ~1 s_lb :", obs_equiv_states(g, 1, "s_tr", "s_lb"))

left = (S_INIT, "s_init'", "s_lb")
right = (S_INIT, S_GEN, "s_B")
print("\nThe two branches that must write the initial head look identical")
print("to agent 2:", obs_equiv_histories(g, 2, left, right))
print("(but not to agent 1:", str(obs_equiv_histories(g, 1, left, right)) + ")")

team = simulating_strategy(rc)
print("\nSo the simulating strategy has agent 2 play the same set-up action")
print("on both:", team.strategies[2].action(g, left), "and",
      team.strategies[2].action(g, right))

print("\nIt is uniform for each agent over every reachable history pair:")
print("  agent 1:", is_uniform(g, team.strategies[1], S_INIT, 8))
print("  agent 2:", is_uniform(g, team.strategies[2], S_INIT, 8))

print("\nBounded outcome sets grow only through agent 3's branching:")
for depth in range(4):
    plays = sorted(outcomes(g, S_INIT, team, depth))
    print(f"  depth {depth}: {len(plays)} histories")
    for h in plays:
        print("     ", " -> ".join(h))
