"""Trading the two classical bits for one qubit via dense coding.

Give the box one more entangled pair and let Alice encode her two output
bits on her half with the four Pauli paintings of |Phi+>.  She then
sends that single qubit; Bob Bell-measures the reunited pair and reads
both bits with certainty.  The round becomes qubit-in, qubit-out, with
exactly one qubit of communication, and produces the same output state
as the standard round, branch for branch.
"""
import numpy as np

from qracbox import (
    DenseCodingPair,
    dense_decode,
    dense_encode,
    fidelity,
    run_qrac_protocol,
)
from qracbox.quantum import KET_PLUS, KET1, haar_random_qubit
from qracbox.rng import make_rng

print("== dense coding on its own ==")
for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
    encoded = dense_encode(bits[0], bits[1], DenseCodingPair())
    decoded = dense_decode(encoded, make_rng(0))
    print(f"  encoded {bits} -> decoded {decoded.bits}")

print()
print("== the qubit-only round vs the standard round, same seed ==")
rng = make_rng(9)
psi, phi = haar_random_qubit(rng), haar_random_qubit(rng)
for seed in range(3):
    std = run_qrac_protocol(psi, phi, KET_PLUS, seed=seed)
    dc = run_qrac_protocol(psi, phi, KET_PLUS, seed=seed, dense=True)
    same = np.array_equal(std.output.matrix, dc.output.matrix)
    print(f"  seed {seed}: outputs identical: {same}")
    print(f"    standard transcript:   {std.transcript.totals.as_dict()}")
    print(f"    qubit-only transcript: {dc.transcript.totals.as_dict()}")

print()
print("== recovery still perfect ==")
rho = run_qrac_protocol(psi, phi, KET1, seed=77, dense=True).output
print(f"  fidelity with the chosen (second) input: {fidelity(rho, phi):.15f}")
