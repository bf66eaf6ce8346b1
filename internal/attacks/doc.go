// Package attacks implements the attack suite ObfusLock is evaluated
// against: the oracle-guided SAT attack and AppSAT (I/O attacks), the
// sensitization attack, and the structural attacks — SPS, removal,
// bypass, Valkyrie-style perturb/restore search, and an SPI-style
// synthesis attack.
//
// # The DIP loop
//
// The I/O attacks share one engine, the DIP loop of runDIP (Subramanyan
// et al.): a miter of two copies of the locked circuit with tied inputs
// and independent keys is solved for a distinguishing input pattern (DIP) —
// an input on which some pair of keys disagrees. The oracle answers the
// DIP, the correct output is asserted for both key copies, and the loop
// repeats. When no DIP remains, every key consistent with the recorded
// constraints is functionally correct, and extractKey returns the
// lexicographically smallest one. AppSAT is the same loop with periodic
// random-query reinforcement and an iteration cap, trading the
// exactness proof for speed on compound schemes.
//
// # Batched DIP pipelining
//
// The loop runs in batched rounds (IOOptions.DIPBatch): after an
// UNSAT-free solve, up to K candidate DIPs are enumerated by adding an
// activation-guarded blocking clause per harvested pattern and
// re-solving; the whole batch is answered by one bit-parallel oracle
// pass (locking.Oracle.QueryBatch), and the resulting I/O constraints
// are added in bulk before the next round's solve. The batching
// contract:
//
//   - Blocking clauses are permanent but carry the miter's activation
//     literal, so they never constrain key extraction; once the batch's
//     I/O constraints are recorded they are implied outright, so they
//     never change termination either.
//   - An UNSAT answer while enumerating *within* a round only ends the
//     batch; termination is decided solely by the next round's fresh
//     solve, after the constraints have landed.
//   - Batches are drained in enumeration order — one "dip" trace event
//     per pattern, iteration counts and oracle-query accounting exactly
//     as in the serial loop (K=1 is the classic algorithm).
//   - An exact attack recovers the same canonical key at any K and any
//     worker count, because the lexicographically-smallest consistent
//     key is a property of the constraint-set semantics, not of the
//     search path.
package attacks
