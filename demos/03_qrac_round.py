"""A full round of the quantum random access code box.

Alice inputs two qubit states, the box hands her two classical bits,
she sends exactly those two bits to Bob, and Bob reconstructs whichever
input qubit he asked for, perfectly.  The two bits she sends are
uniformly random on their own (they are masked by the PR-box coins), so
they carry no information about her states: all the work is done by the
shared entanglement and the boxes.
"""
from qracbox import fidelity, make_pure_qubit, run_qrac_protocol
from qracbox.quantum import KET0, KET1

psi = make_pure_qubit(theta=0.7, phi=1.1)       # an arbitrary qubit
phi = make_pure_qubit(theta=2.2, phi=-0.4)      # another one

print("== Bob asks for the first qubit (choice |0>) ==")
rho = run_qrac_protocol(psi, phi, omega=KET0, seed=42).output
print(f"  fidelity with Alice's first input : {fidelity(rho, psi):.15f}")
print(f"  fidelity with Alice's second input: {fidelity(rho, phi):.15f}")

print()
print("== Bob asks for the second qubit (choice |1>) ==")
result = run_qrac_protocol(psi, phi, omega=KET1, seed=42)
rho, transcript = result.output, result.transcript
print(f"  fidelity with Alice's first input : {fidelity(rho, psi):.15f}")
print(f"  fidelity with Alice's second input: {fidelity(rho, phi):.15f}")

print()
print("== what actually crossed the channel ==")
for msg in transcript.messages:
    print(f"  {msg.direction}  {msg.kind:13s}  {msg.payload}")
print(f"  totals: {transcript.totals.as_dict()}")
print("  two classical bits Alice to Bob, nothing else, every round;")
print("  fewer would make the box signal, so two is also the minimum.")

print()
print("== the published bits are pure noise on their own ==")
from collections import Counter

from qracbox.qrac import sample_alice_output
from qracbox.rng import make_rng

rng = make_rng(100)
counts = Counter(sample_alice_output(psi, phi, 0, rng).bits for _ in range(20000))
for bits, n in sorted(counts.items()):
    print(f"  a1a0 = {bits[0]}{bits[1]}: {n / 20000:.4f}")
