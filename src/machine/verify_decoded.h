// DecodedProgram cross-checker: asserts that every decoded record round-trips
// to the MInstr it was decoded from. Two layers:
//
//   1. Structural checks with precise diagnostics — each record's handler id
//      is a real HOp, its `orig` pointer lands inside the function it claims
//      to come from, its fetch address/size match the linked program's
//      instr_offsets/EncodedSize for that MInstr, branch targets are valid
//      decoded indices, and fused records are LEGAL pairs (a compare-state
//      producer immediately followed by a jcc whose pc is not itself a
//      branch target, with the record's cond equal to the jcc's), every
//      memory-operand record has width 1, 2, 4 or 8 (the fixed-width move
//      helpers treat any other width as 8), and every elided fetch
//      (fetch_lines / fetch_lines2 == 0) is a provable slot-0 L1i hit: a
//      one-line fetch of the line the previous record last fetched, on a
//      record that is neither record 0 nor a branch target and follows a
//      record that falls through (a fused second fetch: its primary's last
//      line). This restates Predecode's elision rule independently, so a bug
//      in the rule cannot verify clean.
//   2. A field-by-field comparison against a fresh Predecode(prog) — decode
//      is deterministic, so any divergence (stale cache entry, bit-flipped
//      artifact that survived the codec checksum, a future decode bug) shows
//      up as a named field mismatch at a named record.
//
// Returns "" when the decoded program is exactly what Predecode(prog)
// produces, else one diagnostic naming the function, decoded index, and
// mismatching field. Used by the engine after BuildDecoded when verification
// is hot, and by tests/verify_test.cc's hand-corrupted records.
#ifndef SRC_MACHINE_VERIFY_DECODED_H_
#define SRC_MACHINE_VERIFY_DECODED_H_

#include <string>

#include "src/machine/decode.h"
#include "src/x64/insts.h"

namespace nsf {

std::string VerifyDecodedProgram(const MProgram& prog, const DecodedProgram& dp);

}  // namespace nsf

#endif  // SRC_MACHINE_VERIFY_DECODED_H_
