#include "src/machine/verify_decoded.h"

#include <cstdint>
#include <vector>

#include "src/machine/cache.h"
#include "src/support/str.h"

namespace nsf {

namespace {

bool IsFusedHandler(HOp h) {
  switch (h) {
    case HOp::kFusedCmpJccRR:
    case HOp::kFusedCmpJccRI:
    case HOp::kFusedCmpJccRM:
    case HOp::kFusedTestJccRR:
    case HOp::kFusedTestJccRI:
    case HOp::kFusedGenJcc:
      return true;
    default:
      return false;
  }
}

// Round-2 fused data pairs: target holds packed second-element operands, NOT
// a branch target, so these are deliberately excluded from both
// IsFusedHandler (no jcc checks apply) and IsDecodedBranchHandler.
bool IsFusedDataHandler(HOp h) {
  return h == HOp::kFusedMovRIMovRR || h == HOp::kFusedLoadZMovRR ||
         h == HOp::kFusedMovRRAddRR;
}

bool IsDecodedBranchHandler(HOp h) {
  return h == HOp::kJmp || h == HOp::kJcc || IsFusedHandler(h);
}

// Handlers after which the next record is reached some other way than by
// falling through (or only after other code ran): the elision rule's
// predecessor test, restated independently of Predecode.
bool FallsThrough(HOp h) {
  return h != HOp::kJmp && h != HOp::kCall && h != HOp::kCallReg && h != HOp::kRet &&
         h != HOp::kCallHostHook && h != HOp::kCallHostTrap && h != HOp::kCallHostMemSize &&
         h != HOp::kCallHostMemGrow;
}

bool HasMemOperand(const MInstr& in) {
  return in.dst.kind == OperandKind::kMem || in.src.kind == OperandKind::kMem;
}

bool ProducesCompareState(MOp op) {
  return op == MOp::kCmp || op == MOp::kTest || op == MOp::kUcomisd || op == MOp::kUcomiss;
}

}  // namespace

std::string VerifyDecodedProgram(const MProgram& prog, const DecodedProgram& dp) {
  if (dp.program != &prog) {
    return "decoded program references a different MProgram than the one it is keyed to";
  }
  if (dp.funcs.size() != prog.funcs.size()) {
    return StrFormat("decoded program has %zu functions, MProgram has %zu", dp.funcs.size(),
                     prog.funcs.size());
  }

  for (size_t fi = 0; fi < dp.funcs.size(); fi++) {
    const DecodedFunc& df = dp.funcs[fi];
    const MFunction& mf = prog.funcs[fi];
    auto at = [&](size_t di, const std::string& msg) {
      return StrFormat("decoded func '%s' (#%zu) record #%zu [%s]: %s", mf.name.c_str(), fi, di,
                       di < df.code.size() ? HOpName(static_cast<HOp>(df.code[di].handler)) : "?",
                       msg.c_str());
    };
    if (mf.instr_offsets.size() != mf.code.size()) {
      return StrFormat("decoded func '%s' (#%zu): MProgram is not linked (instr_offsets %zu for "
                       "%zu instructions)",
                       mf.name.c_str(), fi, mf.instr_offsets.size(), mf.code.size());
    }
    if (df.pc_to_index.size() != mf.code.size()) {
      return StrFormat("decoded func '%s' (#%zu): pc_to_index covers %zu pcs, function has %zu "
                       "instructions",
                       mf.name.c_str(), fi, df.pc_to_index.size(), mf.code.size());
    }
    if (df.code.empty() || static_cast<HOp>(df.code.back().handler) != HOp::kEndOfCode) {
      return StrFormat("decoded func '%s' (#%zu): missing kEndOfCode sentinel", mf.name.c_str(),
                       fi);
    }

    // Which original pcs are branch targets — a fused record's jcc must not
    // be one, or jumps into the middle of the macro-op would be lost.
    std::vector<bool> is_target(mf.code.size(), false);
    for (const MInstr& in : mf.code) {
      if ((in.op == MOp::kJmp || in.op == MOp::kJcc) && in.label < is_target.size()) {
        is_target[in.label] = true;
      }
    }

    for (size_t di = 0; di + 1 < df.code.size(); di++) {  // skip the sentinel
      const DInstr& d = df.code[di];
      HOp h = static_cast<HOp>(d.handler);
      if (d.handler >= static_cast<uint16_t>(HOp::kCount)) {
        return at(di, StrFormat("handler id %u out of range", d.handler));
      }
      if (d.orig == nullptr) {
        return at(di, "null orig pointer");
      }
      if (d.orig < mf.code.data() || d.orig >= mf.code.data() + mf.code.size()) {
        return at(di, "orig pointer outside this function's code");
      }
      size_t oi = static_cast<size_t>(d.orig - mf.code.data());
      if (df.pc_to_index[oi] != di) {
        return at(di, StrFormat("pc_to_index[%zu] = %u does not map back to this record", oi,
                                df.pc_to_index[oi]));
      }
      if (d.fetch_addr != mf.code_base + mf.instr_offsets[oi]) {
        return at(di, StrFormat("fetch_addr %llu != code_base + instr_offsets[%zu] = %llu",
                                static_cast<unsigned long long>(d.fetch_addr), oi,
                                static_cast<unsigned long long>(mf.code_base +
                                                                mf.instr_offsets[oi])));
      }
      if (d.fetch_size != EncodedSize(*d.orig)) {
        return at(di, StrFormat("fetch_size %u != EncodedSize(%s) = %u", d.fetch_size,
                                MInstrToString(*d.orig).c_str(), EncodedSize(*d.orig)));
      }
      if (IsDecodedBranchHandler(h) && d.target >= df.code.size()) {
        return at(di, StrFormat("branch target %u out of range (%zu decoded records)", d.target,
                                df.code.size()));
      }
      // Back-edge flag: set exactly on branch records whose target index is
      // at or before their own.
      const bool flagged = (d.flags & DInstr::kFlagBackEdge) != 0;
      if (flagged && !IsDecodedBranchHandler(h)) {
        return at(di, "back-edge flag on a record that does not branch");
      }
      if (flagged && d.target > di) {
        return at(di, StrFormat("back-edge flag on a forward branch to record %u", d.target));
      }
      if (IsDecodedBranchHandler(h) && !flagged && d.target <= di) {
        return at(di, StrFormat("backward branch to record %u lacks the back-edge flag", d.target));
      }
      if (h == HOp::kCall && d.target >= prog.funcs.size()) {
        return at(di, StrFormat("call target f%u out of range (%zu functions)", d.target,
                                prog.funcs.size()));
      }
      if (IsFusedHandler(h)) {
        if (!ProducesCompareState(d.orig->op)) {
          return at(di, StrFormat("fused record's primary instruction [%s] does not produce "
                                  "compare state",
                                  MInstrToString(*d.orig).c_str()));
        }
        if (oi + 1 >= mf.code.size() || mf.code[oi + 1].op != MOp::kJcc) {
          return at(di, "fused record's primary instruction is not followed by a jcc");
        }
        if (is_target[oi + 1]) {
          return at(di, StrFormat("fused pair's jcc at pc %zu is itself a branch target "
                                  "(illegal fusion)",
                                  oi + 1));
        }
        if (static_cast<Cond>(d.cond) != mf.code[oi + 1].cond) {
          return at(di, StrFormat("fused record's cond %s != the jcc's cond %s",
                                  CondName(static_cast<Cond>(d.cond)),
                                  CondName(mf.code[oi + 1].cond)));
        }
        if (d.fetch_addr2 != mf.code_base + mf.instr_offsets[oi + 1] ||
            d.fetch_size2 != EncodedSize(mf.code[oi + 1])) {
          return at(di, "fused record's second fetch does not match the jcc's address/size");
        }
      }
      if (IsFusedDataHandler(h)) {
        if (oi + 1 >= mf.code.size()) {
          return at(di, "fused data pair's primary is the function's last instruction");
        }
        if (is_target[oi + 1]) {
          return at(di, StrFormat("fused data pair's second element at pc %zu is itself a "
                                  "branch target (illegal fusion)",
                                  oi + 1));
        }
        if (d.fetch_addr2 != mf.code_base + mf.instr_offsets[oi + 1] ||
            d.fetch_size2 != EncodedSize(mf.code[oi + 1])) {
          return at(di, "fused data pair's second fetch does not match the second element");
        }
      }
      if (HasMemOperand(*d.orig) && d.width != 1 && d.width != 2 && d.width != 4 &&
          d.width != 8) {
        return at(di, StrFormat("memory-operand width %u is not 1, 2, 4 or 8", d.width));
      }
      // Elided fetches (fetch_lines 0) must be provable slot-0 L1i hits: one
      // line, equal to the last line fetched by the record that must have run
      // just before.
      if (d.fetch_lines == 0) {
        if (di == 0) {
          return at(di, "elided fetch on record 0, which has no predecessor");
        }
        if (is_target[oi]) {
          return at(di, StrFormat("elided fetch on a branch target (pc %zu)", oi));
        }
        const DInstr& prev = df.code[di - 1];
        HOp ph = static_cast<HOp>(prev.handler);
        if (!FallsThrough(ph)) {
          return at(di, StrFormat("elided fetch after a %s record, which does not fall through",
                                  HOpName(ph)));
        }
        if (LineOf(d.fetch_addr) != LastLineOf(d.fetch_addr, d.fetch_size)) {
          return at(di, "elided fetch spans more than one L1i line");
        }
        bool prev_fused = IsFusedHandler(ph) || IsFusedDataHandler(ph);
        uint64_t prev_line = prev_fused ? LastLineOf(prev.fetch_addr2, prev.fetch_size2)
                                        : LastLineOf(prev.fetch_addr, prev.fetch_size);
        if (LineOf(d.fetch_addr) != prev_line) {
          return at(di, StrFormat("elided fetch of line %llu, but the previous record last "
                                  "fetched line %llu",
                                  static_cast<unsigned long long>(LineOf(d.fetch_addr)),
                                  static_cast<unsigned long long>(prev_line)));
        }
      }
      if ((IsFusedHandler(h) || IsFusedDataHandler(h)) && d.fetch_lines2 == 0) {
        if (LineOf(d.fetch_addr2) != LastLineOf(d.fetch_addr2, d.fetch_size2)) {
          return at(di, "elided second fetch spans more than one L1i line");
        }
        uint64_t primary_line = LastLineOf(d.fetch_addr, d.fetch_size);
        if (LineOf(d.fetch_addr2) != primary_line) {
          return at(di, StrFormat("elided second fetch of line %llu, but the primary last "
                                  "fetched line %llu",
                                  static_cast<unsigned long long>(LineOf(d.fetch_addr2)),
                                  static_cast<unsigned long long>(primary_line)));
        }
      }
    }
  }

  // Decode is deterministic: the loaded/cached decoded form must be exactly
  // what a fresh Predecode produces. Any surviving divergence is a named
  // field mismatch.
  DecodedProgram fresh = Predecode(prog);
  for (size_t fi = 0; fi < dp.funcs.size(); fi++) {
    const DecodedFunc& df = dp.funcs[fi];
    const DecodedFunc& ef = fresh.funcs[fi];
    const MFunction& mf = prog.funcs[fi];
    if (df.code.size() != ef.code.size()) {
      return StrFormat("decoded func '%s' (#%zu): %zu records, fresh predecode produces %zu",
                       mf.name.c_str(), fi, df.code.size(), ef.code.size());
    }
    if (df.pc_to_index != ef.pc_to_index) {
      return StrFormat("decoded func '%s' (#%zu): pc_to_index diverges from a fresh predecode",
                       mf.name.c_str(), fi);
    }
    for (size_t di = 0; di < df.code.size(); di++) {
      const DInstr& d = df.code[di];
      const DInstr& e = ef.code[di];
      const char* field = nullptr;
      if (d.handler != e.handler) {
        field = "handler";
      } else if (d.width != e.width) {
        field = "width";
      } else if (d.a != e.a) {
        field = "a (dst reg)";
      } else if (d.b != e.b) {
        field = "b (src reg)";
      } else if (d.cond != e.cond) {
        field = "cond";
      } else if (d.flags != e.flags) {
        field = "flags";
      } else if (d.fetch_lines != e.fetch_lines) {
        field = "fetch_lines";
      } else if (d.fetch_addr != e.fetch_addr) {
        field = "fetch_addr";
      } else if (d.fetch_size != e.fetch_size) {
        field = "fetch_size";
      } else if (d.target != e.target) {
        field = "target";
      } else if (d.imm != e.imm) {
        field = "imm";
      } else if (d.mem.base != e.mem.base || d.mem.index != e.mem.index ||
                 d.mem.scale != e.mem.scale || d.mem.disp != e.mem.disp) {
        field = "mem operand";
      } else if (d.fetch_addr2 != e.fetch_addr2 || d.fetch_size2 != e.fetch_size2 ||
                 d.fetch_lines2 != e.fetch_lines2) {
        field = "fused second fetch";
      } else if (d.orig != e.orig) {
        field = "orig pointer";
      }
      if (field != nullptr) {
        return StrFormat("decoded func '%s' (#%zu) record #%zu [%s]: %s does not round-trip to "
                         "the MInstr it was decoded from (fresh predecode disagrees)",
                         mf.name.c_str(), fi, di,
                         HOpName(static_cast<HOp>(e.handler)), field);
      }
    }
  }
  return "";
}

}  // namespace nsf
