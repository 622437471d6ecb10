// Lowering: abstract interpretation of the Wasm operand stack into VOps.
#include <cassert>

#include "src/codegen/codegen.h"
#include "src/support/str.h"

namespace nsf {

namespace {

struct BlockCtx {
  Opcode op = Opcode::kBlock;      // kBlock / kLoop / kIf
  uint32_t br_label = 0;           // where a branch to this label jumps
  uint32_t end_label = 0;          // label at end; loops: structural only
  uint32_t result_vreg = kNoVReg;  // kNoVReg when void
  bool result_fp = false;
  uint8_t result_width = 4;
  size_t stack_base = 0;           // operand stack height at entry
  bool after_else = false;
};

struct ValEntry {
  uint32_t vreg;
};

class Lowerer {
 public:
  Lowerer(const Module& module, uint32_t defined_index, const CodegenOptions& options)
      : module_(module),
        func_(module.functions[defined_index]),
        type_(module.types[func_.type_index]),
        options_(options) {
    vf_.wasm_index = module.NumImportedFuncs() + defined_index;
    // StrFormat, not `"f" + std::to_string(...)`: GCC 12 at -O3 reports a
    // false -Wrestrict on the std::string concatenation.
    vf_.name = func_.debug_name.empty() ? StrFormat("f%u", vf_.wasm_index) : func_.debug_name;
    vf_.num_params = static_cast<uint32_t>(type_.params.size());
    vf_.has_ret = !type_.results.empty();
    if (vf_.has_ret) {
      vf_.ret_fp = IsFloat(type_.results[0]);
    }
  }

  VFunc Run() {
    // Materialize params + locals as dedicated vregs.
    for (size_t i = 0; i < type_.params.size(); i++) {
      uint32_t v = NewForType(type_.params[i]);
      locals_.push_back(v);
      VOp op;
      op.k = VOp::K::kParam;
      op.d = v;
      op.imm = i;
      op.width = vf_.vregs[v].width;
      op.is_fp = vf_.vregs[v].is_fp;
      vf_.ops.push_back(op);
    }
    for (ValType t : func_.locals) {
      uint32_t v = NewForType(t);
      locals_.push_back(v);
      // Zero-initialize (Wasm semantics).
      VOp op;
      if (IsFloat(t)) {
        op.k = VOp::K::kConstF;
        op.is_fp = true;
      } else {
        op.k = VOp::K::kConst;
      }
      op.d = v;
      op.imm = 0;
      op.width = vf_.vregs[v].width;
      vf_.ops.push_back(op);
    }
    // Implicit function block.
    BlockCtx fb;
    fb.op = Opcode::kBlock;
    fb.end_label = vf_.NewLabel();
    fb.br_label = fb.end_label;
    fb.result_vreg = vf_.has_ret ? NewForType(type_.results[0]) : kNoVReg;
    fb.result_fp = vf_.has_ret && vf_.ret_fp;
    fb.result_width = vf_.has_ret ? WidthOf(type_.results[0]) : 4;
    blocks_.push_back(fb);

    for (size_t pc = 0; pc < func_.body.size(); pc++) {
      LowerInstr(func_.body[pc]);
      if (blocks_.empty()) {
        break;  // final end consumed
      }
    }
    return std::move(vf_);
  }

 private:
  static uint8_t WidthOf(ValType t) { return Is64Bit(t) ? 8 : 4; }

  uint32_t NewForType(ValType t) { return vf_.NewVReg(IsFloat(t), WidthOf(t)); }

  void Push(uint32_t vreg) { stack_.push_back(ValEntry{vreg}); }

  uint32_t Pop() {
    size_t base = blocks_.empty() ? 0 : blocks_.back().stack_base;
    if (stack_.empty() || stack_.size() <= base) {
      // Unreachable-code filler: produce a dummy vreg.
      return vf_.NewVReg(false, 4);
    }
    uint32_t v = stack_.back().vreg;
    stack_.pop_back();
    return v;
  }

  VOp& Emit(VOp op) {
    vf_.ops.push_back(std::move(op));
    return vf_.ops.back();
  }

  void EmitLabel(uint32_t label) {
    VOp op;
    op.k = VOp::K::kLabel;
    op.label = label;
    Emit(op);
  }

  void EmitBr(uint32_t label) {
    VOp op;
    op.k = VOp::K::kBr;
    op.label = label;
    Emit(op);
  }

  // Emits the value move a branch to `target` must perform (block results).
  void EmitBranchValueMove(const BlockCtx& target) {
    if (target.op != Opcode::kLoop && target.result_vreg != kNoVReg) {
      // Peek (not pop): conditional branches fall through keeping the value.
      uint32_t src = stack_.empty() ? vf_.NewVReg(target.result_fp, target.result_width)
                                    : stack_.back().vreg;
      VOp mv;
      mv.k = VOp::K::kMove;
      mv.d = target.result_vreg;
      mv.a = src;
      mv.is_fp = target.result_fp;
      mv.width = target.result_width;
      Emit(mv);
    }
  }

  BlockCtx& BlockAt(uint32_t depth) { return blocks_[blocks_.size() - 1 - depth]; }

  uint32_t UnOut(Opcode op) {
    // Result class/width of a unary op.
    switch (op) {
      case Opcode::kI32Eqz:
      case Opcode::kI64Eqz:
      case Opcode::kI32Clz:
      case Opcode::kI32Ctz:
      case Opcode::kI32Popcnt:
      case Opcode::kI32WrapI64:
      case Opcode::kI32TruncF32S:
      case Opcode::kI32TruncF32U:
      case Opcode::kI32TruncF64S:
      case Opcode::kI32TruncF64U:
      case Opcode::kI32ReinterpretF32:
        return vf_.NewVReg(false, 4);
      case Opcode::kI64Clz:
      case Opcode::kI64Ctz:
      case Opcode::kI64Popcnt:
      case Opcode::kI64ExtendI32S:
      case Opcode::kI64ExtendI32U:
      case Opcode::kI64TruncF32S:
      case Opcode::kI64TruncF32U:
      case Opcode::kI64TruncF64S:
      case Opcode::kI64TruncF64U:
      case Opcode::kI64ReinterpretF64:
        return vf_.NewVReg(false, 8);
      case Opcode::kF32Abs:
      case Opcode::kF32Neg:
      case Opcode::kF32Ceil:
      case Opcode::kF32Floor:
      case Opcode::kF32Trunc:
      case Opcode::kF32Nearest:
      case Opcode::kF32Sqrt:
      case Opcode::kF32ConvertI32S:
      case Opcode::kF32ConvertI32U:
      case Opcode::kF32ConvertI64S:
      case Opcode::kF32ConvertI64U:
      case Opcode::kF32DemoteF64:
      case Opcode::kF32ReinterpretI32:
        return vf_.NewVReg(true, 4);
      default:
        return vf_.NewVReg(true, 8);
    }
  }

  void LowerCompare(Cond cond, bool is_fp, uint8_t width, bool swap = false) {
    uint32_t b = Pop();
    uint32_t a = Pop();
    if (swap) {
      std::swap(a, b);
    }
    uint32_t d = vf_.NewVReg(false, 4);
    VOp op;
    op.k = VOp::K::kCmp;
    op.d = d;
    op.a = a;
    op.b = b;
    op.cond = cond;
    op.is_fp = is_fp;
    op.width = width;
    Emit(op);
    Push(d);
  }

  void LowerBin(Opcode wop, bool is_fp, uint8_t width) {
    uint32_t b = Pop();
    uint32_t a = Pop();
    uint32_t d = vf_.NewVReg(is_fp, width);
    VOp op;
    op.k = VOp::K::kBin;
    op.wop = wop;
    op.d = d;
    op.a = a;
    op.b = b;
    op.is_fp = is_fp;
    op.width = width;
    Emit(op);
    Push(d);
    MaybeCoerce(d, is_fp, width);
  }

  void LowerUn(Opcode wop) {
    uint32_t a = Pop();
    uint32_t d = UnOut(wop);
    VOp op;
    op.k = VOp::K::kUn;
    op.wop = wop;
    op.d = d;
    op.a = a;
    op.is_fp = vf_.vregs[d].is_fp;
    op.width = vf_.vregs[d].width;
    Emit(op);
    Push(d);
  }

  // asm.js profile: coercion move after integer/float arithmetic (the
  // residue of |0 and +x annotations).
  void MaybeCoerce(uint32_t v, bool is_fp, uint8_t width) {
    if (!options_.asmjs_coercions) {
      return;
    }
    uint32_t t = vf_.NewVReg(is_fp, width);
    VOp mv;
    mv.k = VOp::K::kMove;
    mv.d = t;
    mv.a = v;
    mv.is_fp = is_fp;
    mv.width = width;
    Emit(mv);
    stack_.back().vreg = t;
  }

  void LowerInstr(const Instr& instr) {
    switch (instr.op) {
      case Opcode::kNop:
        break;
      case Opcode::kUnreachable: {
        VOp op;
        op.k = VOp::K::kTrap;
        Emit(op);
        break;
      }
      case Opcode::kBlock: {
        BlockCtx b;
        b.op = Opcode::kBlock;
        b.end_label = vf_.NewLabel();
        b.br_label = b.end_label;
        b.stack_base = stack_.size();
        if (instr.block_type != kVoidBlockType) {
          ValType t = static_cast<ValType>(static_cast<uint8_t>(instr.block_type & 0x7f));
          b.result_vreg = NewForType(t);
          b.result_fp = IsFloat(t);
          b.result_width = WidthOf(t);
        }
        blocks_.push_back(b);
        break;
      }
      case Opcode::kLoop: {
        BlockCtx b;
        b.op = Opcode::kLoop;
        b.br_label = vf_.NewLabel();   // loop header
        b.end_label = vf_.NewLabel();  // not a branch target; structural only
        b.stack_base = stack_.size();
        if (instr.block_type != kVoidBlockType) {
          ValType t = static_cast<ValType>(static_cast<uint8_t>(instr.block_type & 0x7f));
          b.result_vreg = NewForType(t);
          b.result_fp = IsFloat(t);
          b.result_width = WidthOf(t);
        }
        blocks_.push_back(b);
        vf_.loop_headers.push_back(b.br_label);
        EmitLabel(b.br_label);
        break;
      }
      case Opcode::kIf: {
        uint32_t cond = Pop();
        BlockCtx b;
        b.op = Opcode::kIf;
        b.end_label = vf_.NewLabel();
        b.br_label = b.end_label;
        b.stack_base = stack_.size();
        if (instr.block_type != kVoidBlockType) {
          ValType t = static_cast<ValType>(static_cast<uint8_t>(instr.block_type & 0x7f));
          b.result_vreg = NewForType(t);
          b.result_fp = IsFloat(t);
          b.result_width = WidthOf(t);
        }
        // else_label: where to go when false.
        uint32_t else_label = vf_.NewLabel();
        else_labels_.push_back(else_label);
        blocks_.push_back(b);
        VOp br;
        br.k = VOp::K::kBrIf;
        br.a = cond;
        br.negate = true;  // branch when condition is zero
        br.label = else_label;
        br.psite = next_branch_site_++;
        Emit(br);
        break;
      }
      case Opcode::kElse: {
        BlockCtx& b = blocks_.back();
        // Then-arm result move + jump to end.
        if (b.result_vreg != kNoVReg) {
          uint32_t v = Pop();
          VOp mv;
          mv.k = VOp::K::kMove;
          mv.d = b.result_vreg;
          mv.a = v;
          mv.is_fp = b.result_fp;
          mv.width = b.result_width;
          Emit(mv);
        }
        EmitBr(b.end_label);
        EmitLabel(else_labels_.back());
        else_labels_.back() = UINT32_MAX;  // consumed
        b.after_else = true;
        stack_.resize(b.stack_base);
        break;
      }
      case Opcode::kEnd: {
        BlockCtx b = blocks_.back();
        // Fall-through result move (popped while `b` is still the innermost
        // block so Pop() sees the right stack base).
        if (b.result_vreg != kNoVReg && stack_.size() > b.stack_base) {
          uint32_t v = Pop();
          VOp mv;
          mv.k = VOp::K::kMove;
          mv.d = b.result_vreg;
          mv.a = v;
          mv.is_fp = b.result_fp;
          mv.width = b.result_width;
          Emit(mv);
        }
        blocks_.pop_back();
        if (b.op == Opcode::kIf && !b.after_else) {
          // If without else: the else label lands here.
          EmitLabel(else_labels_.back());
          else_labels_.pop_back();
        } else if (b.op == Opcode::kIf || b.after_else) {
          else_labels_.pop_back();
        }
        EmitLabel(b.end_label);
        stack_.resize(b.stack_base);
        if (blocks_.empty()) {
          // Function end.
          VOp ret;
          ret.k = VOp::K::kRet;
          ret.a = b.result_vreg;
          ret.is_fp = b.result_fp;
          ret.width = b.result_width;
          Emit(ret);
        } else if (b.result_vreg != kNoVReg) {
          Push(b.result_vreg);
        }
        break;
      }
      case Opcode::kBr: {
        BlockCtx& target = BlockAt(instr.a);
        EmitBranchValueMove(target);
        EmitBr(target.br_label);
        break;
      }
      case Opcode::kBrIf: {
        uint32_t cond = Pop();
        uint32_t psite = next_branch_site_++;
        BlockCtx& target = BlockAt(instr.a);
        EmitBranchValueMove(target);
        // Fuse a preceding compare into a compare-and-branch when the
        // condition was just produced by kCmp and is otherwise unused.
        if (!vf_.ops.empty()) {
          VOp& prev = vf_.ops.back();
          if (prev.k == VOp::K::kCmp && prev.d == cond && !prev.is_fp) {
            VOp br;
            br.k = VOp::K::kBrCmp;
            br.a = prev.a;
            br.b = prev.b;
            br.cond = prev.cond;
            br.width = prev.width;
            br.label = target.br_label;
            br.psite = psite;
            vf_.ops.back() = br;
            break;
          }
        }
        VOp br;
        br.k = VOp::K::kBrIf;
        br.a = cond;
        br.label = target.br_label;
        br.psite = psite;
        Emit(br);
        break;
      }
      case Opcode::kBrTable: {
        uint32_t idx = Pop();
        // Chain of compare-and-branch (engines may emit jump tables; a chain
        // keeps both backends comparable and is what baseline tiers do).
        for (size_t i = 0; i + 1 < instr.table.size(); i++) {
          BlockCtx& target = BlockAt(instr.table[i]);
          EmitBranchValueMove(target);
          uint32_t k = vf_.NewVReg(false, 4);
          VOp c;
          c.k = VOp::K::kConst;
          c.d = k;
          c.imm = i;
          c.width = 4;
          Emit(c);
          VOp br;
          br.k = VOp::K::kBrCmp;
          br.a = idx;
          br.b = k;
          br.cond = Cond::kE;
          br.width = 4;
          br.label = target.br_label;
          Emit(br);
        }
        BlockCtx& def = BlockAt(instr.table.back());
        EmitBranchValueMove(def);
        EmitBr(def.br_label);
        break;
      }
      case Opcode::kReturn: {
        VOp ret;
        ret.k = VOp::K::kRet;
        if (vf_.has_ret) {
          ret.a = Pop();
          ret.is_fp = vf_.ret_fp;
          ret.width = WidthOf(type_.results[0]);
        }
        Emit(ret);
        break;
      }
      case Opcode::kCall: {
        const FuncType& sig = module_.FuncTypeOf(instr.a);
        VOp call;
        call.k = VOp::K::kCall;
        call.func = instr.a;
        call.args.resize(sig.params.size());
        for (size_t i = sig.params.size(); i > 0; i--) {
          call.args[i - 1] = Pop();
        }
        if (!sig.results.empty()) {
          call.d = NewForType(sig.results[0]);
          call.is_fp = IsFloat(sig.results[0]);
          call.width = WidthOf(sig.results[0]);
        }
        uint32_t d = call.d;
        Emit(call);
        if (d != kNoVReg) {
          Push(d);
        }
        break;
      }
      case Opcode::kCallIndirect: {
        const FuncType& sig = module_.types[instr.a];
        VOp call;
        call.k = VOp::K::kCallInd;
        call.sig = instr.a;
        call.psite = next_indirect_site_++;
        call.a = Pop();  // table index
        call.args.resize(sig.params.size());
        for (size_t i = sig.params.size(); i > 0; i--) {
          call.args[i - 1] = Pop();
        }
        if (!sig.results.empty()) {
          call.d = NewForType(sig.results[0]);
          call.is_fp = IsFloat(sig.results[0]);
          call.width = WidthOf(sig.results[0]);
        }
        uint32_t d = call.d;
        Emit(call);
        if (d != kNoVReg) {
          Push(d);
        }
        break;
      }
      case Opcode::kDrop:
        Pop();
        break;
      case Opcode::kSelect: {
        uint32_t c = Pop();
        uint32_t b = Pop();
        uint32_t a = Pop();
        uint32_t d = vf_.NewVReg(vf_.vregs[a].is_fp, vf_.vregs[a].width);
        VOp op;
        op.k = VOp::K::kSelect;
        op.d = d;
        op.a = a;
        op.b = b;
        op.c = c;
        op.is_fp = vf_.vregs[a].is_fp;
        op.width = vf_.vregs[a].width;
        Emit(op);
        Push(d);
        break;
      }
      case Opcode::kLocalGet: {
        uint32_t lv = locals_[instr.a];
        uint32_t t = vf_.NewVReg(vf_.vregs[lv].is_fp, vf_.vregs[lv].width);
        VOp mv;
        mv.k = VOp::K::kMove;
        mv.d = t;
        mv.a = lv;
        mv.is_fp = vf_.vregs[lv].is_fp;
        mv.width = vf_.vregs[lv].width;
        Emit(mv);
        Push(t);
        break;
      }
      case Opcode::kLocalSet: {
        uint32_t v = Pop();
        uint32_t lv = locals_[instr.a];
        VOp mv;
        mv.k = VOp::K::kMove;
        mv.d = lv;
        mv.a = v;
        mv.is_fp = vf_.vregs[lv].is_fp;
        mv.width = vf_.vregs[lv].width;
        Emit(mv);
        break;
      }
      case Opcode::kLocalTee: {
        uint32_t v = stack_.empty() ? vf_.NewVReg(false, 4) : stack_.back().vreg;
        uint32_t lv = locals_[instr.a];
        VOp mv;
        mv.k = VOp::K::kMove;
        mv.d = lv;
        mv.a = v;
        mv.is_fp = vf_.vregs[lv].is_fp;
        mv.width = vf_.vregs[lv].width;
        Emit(mv);
        break;
      }
      case Opcode::kGlobalGet: {
        GlobalType gt = module_.GlobalTypeOf(instr.a);
        uint32_t d = NewForType(gt.type);
        VOp op;
        op.k = VOp::K::kGlobalGet;
        op.d = d;
        op.imm = instr.a;
        op.is_fp = IsFloat(gt.type);
        op.width = WidthOf(gt.type);
        Emit(op);
        Push(d);
        break;
      }
      case Opcode::kGlobalSet: {
        GlobalType gt = module_.GlobalTypeOf(instr.a);
        VOp op;
        op.k = VOp::K::kGlobalSet;
        op.a = Pop();
        op.imm = instr.a;
        op.is_fp = IsFloat(gt.type);
        op.width = WidthOf(gt.type);
        Emit(op);
        break;
      }
      case Opcode::kMemorySize: {
        uint32_t d = vf_.NewVReg(false, 4);
        VOp op;
        op.k = VOp::K::kMemSize;
        op.d = d;
        Emit(op);
        Push(d);
        break;
      }
      case Opcode::kMemoryGrow: {
        uint32_t a = Pop();
        uint32_t d = vf_.NewVReg(false, 4);
        VOp op;
        op.k = VOp::K::kMemGrow;
        op.d = d;
        op.a = a;
        Emit(op);
        Push(d);
        break;
      }
      case Opcode::kI32Const: {
        uint32_t d = vf_.NewVReg(false, 4);
        VOp op;
        op.k = VOp::K::kConst;
        op.d = d;
        op.imm = instr.imm;
        op.width = 4;
        Emit(op);
        Push(d);
        break;
      }
      case Opcode::kI64Const: {
        uint32_t d = vf_.NewVReg(false, 8);
        VOp op;
        op.k = VOp::K::kConst;
        op.d = d;
        op.imm = instr.imm;
        op.width = 8;
        Emit(op);
        Push(d);
        break;
      }
      case Opcode::kF32Const: {
        uint32_t d = vf_.NewVReg(true, 4);
        VOp op;
        op.k = VOp::K::kConstF;
        op.d = d;
        op.imm = instr.imm;
        op.is_fp = true;
        op.width = 4;
        Emit(op);
        Push(d);
        break;
      }
      case Opcode::kF64Const: {
        uint32_t d = vf_.NewVReg(true, 8);
        VOp op;
        op.k = VOp::K::kConstF;
        op.d = d;
        op.imm = instr.imm;
        op.is_fp = true;
        op.width = 8;
        Emit(op);
        Push(d);
        break;
      }
      default:
        LowerNumericOrMemory(instr);
        break;
    }
  }

  void LowerNumericOrMemory(const Instr& instr) {
    uint8_t byte = static_cast<uint8_t>(instr.op);
    // Memory accesses.
    if (byte >= 0x28 && byte <= 0x35) {  // loads
      uint32_t addr = Pop();
      bool is_fp = instr.op == Opcode::kF32Load || instr.op == Opcode::kF64Load;
      uint8_t value_width = 8;
      uint8_t access_width = 8;
      bool sign = false;
      switch (instr.op) {
        case Opcode::kI32Load: value_width = 4; access_width = 4; break;
        case Opcode::kI64Load: value_width = 8; access_width = 8; break;
        case Opcode::kF32Load: value_width = 4; access_width = 4; break;
        case Opcode::kF64Load: value_width = 8; access_width = 8; break;
        case Opcode::kI32Load8S: value_width = 4; access_width = 1; sign = true; break;
        case Opcode::kI32Load8U: value_width = 4; access_width = 1; break;
        case Opcode::kI32Load16S: value_width = 4; access_width = 2; sign = true; break;
        case Opcode::kI32Load16U: value_width = 4; access_width = 2; break;
        case Opcode::kI64Load8S: value_width = 8; access_width = 1; sign = true; break;
        case Opcode::kI64Load8U: value_width = 8; access_width = 1; break;
        case Opcode::kI64Load16S: value_width = 8; access_width = 2; sign = true; break;
        case Opcode::kI64Load16U: value_width = 8; access_width = 2; break;
        case Opcode::kI64Load32S: value_width = 8; access_width = 4; sign = true; break;
        case Opcode::kI64Load32U: value_width = 8; access_width = 4; break;
        default: break;
      }
      uint32_t d = vf_.NewVReg(is_fp, value_width);
      VOp op;
      op.k = VOp::K::kLoad;
      op.d = d;
      op.a = addr;
      op.offset = static_cast<int32_t>(instr.b);
      op.width = access_width;
      op.sign = sign;
      op.is_fp = is_fp;
      Emit(op);
      Push(d);
      return;
    }
    if (byte >= 0x36 && byte <= 0x3e) {  // stores
      uint32_t value = Pop();
      uint32_t addr = Pop();
      uint8_t access_width = 4;
      bool is_fp = instr.op == Opcode::kF32Store || instr.op == Opcode::kF64Store;
      switch (instr.op) {
        case Opcode::kI32Store: access_width = 4; break;
        case Opcode::kI64Store: access_width = 8; break;
        case Opcode::kF32Store: access_width = 4; break;
        case Opcode::kF64Store: access_width = 8; break;
        case Opcode::kI32Store8: access_width = 1; break;
        case Opcode::kI32Store16: access_width = 2; break;
        case Opcode::kI64Store8: access_width = 1; break;
        case Opcode::kI64Store16: access_width = 2; break;
        case Opcode::kI64Store32: access_width = 4; break;
        default: break;
      }
      VOp op;
      op.k = VOp::K::kStore;
      op.a = addr;
      op.b = value;
      op.offset = static_cast<int32_t>(instr.b);
      op.width = access_width;
      op.is_fp = is_fp;
      Emit(op);
      return;
    }
    // Comparisons producing i32.
    switch (instr.op) {
      case Opcode::kI32Eqz:
      case Opcode::kI64Eqz: {
        // x == 0 via compare against constant zero.
        uint8_t w = instr.op == Opcode::kI64Eqz ? 8 : 4;
        uint32_t zero = vf_.NewVReg(false, w);
        VOp c;
        c.k = VOp::K::kConst;
        c.d = zero;
        c.imm = 0;
        c.width = w;
        Emit(c);
        Push(zero);
        LowerCompare(Cond::kE, false, w);
        return;
      }
      case Opcode::kI32Eq: LowerCompare(Cond::kE, false, 4); return;
      case Opcode::kI32Ne: LowerCompare(Cond::kNe, false, 4); return;
      case Opcode::kI32LtS: LowerCompare(Cond::kL, false, 4); return;
      case Opcode::kI32LtU: LowerCompare(Cond::kB, false, 4); return;
      case Opcode::kI32GtS: LowerCompare(Cond::kG, false, 4); return;
      case Opcode::kI32GtU: LowerCompare(Cond::kA, false, 4); return;
      case Opcode::kI32LeS: LowerCompare(Cond::kLe, false, 4); return;
      case Opcode::kI32LeU: LowerCompare(Cond::kBe, false, 4); return;
      case Opcode::kI32GeS: LowerCompare(Cond::kGe, false, 4); return;
      case Opcode::kI32GeU: LowerCompare(Cond::kAe, false, 4); return;
      case Opcode::kI64Eq: LowerCompare(Cond::kE, false, 8); return;
      case Opcode::kI64Ne: LowerCompare(Cond::kNe, false, 8); return;
      case Opcode::kI64LtS: LowerCompare(Cond::kL, false, 8); return;
      case Opcode::kI64LtU: LowerCompare(Cond::kB, false, 8); return;
      case Opcode::kI64GtS: LowerCompare(Cond::kG, false, 8); return;
      case Opcode::kI64GtU: LowerCompare(Cond::kA, false, 8); return;
      case Opcode::kI64LeS: LowerCompare(Cond::kLe, false, 8); return;
      case Opcode::kI64LeU: LowerCompare(Cond::kBe, false, 8); return;
      case Opcode::kI64GeS: LowerCompare(Cond::kGe, false, 8); return;
      // FP compares: ucomisd semantics require unsigned-style conditions.
      // a < b  <=>  ucomisd b, a sets "above" — we encode as swapped A/AE.
      case Opcode::kF32Eq: LowerCompare(Cond::kE, true, 4); return;
      case Opcode::kF32Ne: LowerCompare(Cond::kNe, true, 4); return;
      case Opcode::kF32Lt: LowerCompare(Cond::kA, true, 4, /*swap=*/true); return;
      case Opcode::kF32Gt: LowerCompare(Cond::kA, true, 4); return;
      case Opcode::kF32Le: LowerCompare(Cond::kAe, true, 4, /*swap=*/true); return;
      case Opcode::kF32Ge: LowerCompare(Cond::kAe, true, 4); return;
      case Opcode::kF64Eq: LowerCompare(Cond::kE, true, 8); return;
      case Opcode::kF64Ne: LowerCompare(Cond::kNe, true, 8); return;
      case Opcode::kF64Lt: LowerCompare(Cond::kA, true, 8, /*swap=*/true); return;
      case Opcode::kF64Gt: LowerCompare(Cond::kA, true, 8); return;
      case Opcode::kF64Le: LowerCompare(Cond::kAe, true, 8, /*swap=*/true); return;
      case Opcode::kF64Ge: LowerCompare(Cond::kAe, true, 8); return;
      case Opcode::kI64GeU: LowerCompare(Cond::kAe, false, 8); return;
      default:
        break;
    }
    // Unary ops.
    switch (instr.op) {
      case Opcode::kI32Clz:
      case Opcode::kI32Ctz:
      case Opcode::kI32Popcnt:
      case Opcode::kI64Clz:
      case Opcode::kI64Ctz:
      case Opcode::kI64Popcnt:
      case Opcode::kI32WrapI64:
      case Opcode::kI64ExtendI32S:
      case Opcode::kI64ExtendI32U:
      case Opcode::kF32Abs:
      case Opcode::kF32Neg:
      case Opcode::kF32Ceil:
      case Opcode::kF32Floor:
      case Opcode::kF32Trunc:
      case Opcode::kF32Nearest:
      case Opcode::kF32Sqrt:
      case Opcode::kF64Abs:
      case Opcode::kF64Neg:
      case Opcode::kF64Ceil:
      case Opcode::kF64Floor:
      case Opcode::kF64Trunc:
      case Opcode::kF64Nearest:
      case Opcode::kF64Sqrt:
      case Opcode::kI32TruncF32S:
      case Opcode::kI32TruncF32U:
      case Opcode::kI32TruncF64S:
      case Opcode::kI32TruncF64U:
      case Opcode::kI64TruncF32S:
      case Opcode::kI64TruncF32U:
      case Opcode::kI64TruncF64S:
      case Opcode::kI64TruncF64U:
      case Opcode::kF32ConvertI32S:
      case Opcode::kF32ConvertI32U:
      case Opcode::kF32ConvertI64S:
      case Opcode::kF32ConvertI64U:
      case Opcode::kF32DemoteF64:
      case Opcode::kF64ConvertI32S:
      case Opcode::kF64ConvertI32U:
      case Opcode::kF64ConvertI64S:
      case Opcode::kF64ConvertI64U:
      case Opcode::kF64PromoteF32:
      case Opcode::kI32ReinterpretF32:
      case Opcode::kI64ReinterpretF64:
      case Opcode::kF32ReinterpretI32:
      case Opcode::kF64ReinterpretI64:
        LowerUn(instr.op);
        return;
      default:
        break;
    }
    // Binary ops.
    switch (instr.op) {
      case Opcode::kI32Add:
      case Opcode::kI32Sub:
      case Opcode::kI32Mul:
      case Opcode::kI32DivS:
      case Opcode::kI32DivU:
      case Opcode::kI32RemS:
      case Opcode::kI32RemU:
      case Opcode::kI32And:
      case Opcode::kI32Or:
      case Opcode::kI32Xor:
      case Opcode::kI32Shl:
      case Opcode::kI32ShrS:
      case Opcode::kI32ShrU:
      case Opcode::kI32Rotl:
      case Opcode::kI32Rotr:
        LowerBin(instr.op, false, 4);
        return;
      case Opcode::kI64Add:
      case Opcode::kI64Sub:
      case Opcode::kI64Mul:
      case Opcode::kI64DivS:
      case Opcode::kI64DivU:
      case Opcode::kI64RemS:
      case Opcode::kI64RemU:
      case Opcode::kI64And:
      case Opcode::kI64Or:
      case Opcode::kI64Xor:
      case Opcode::kI64Shl:
      case Opcode::kI64ShrS:
      case Opcode::kI64ShrU:
      case Opcode::kI64Rotl:
      case Opcode::kI64Rotr:
        LowerBin(instr.op, false, 8);
        return;
      case Opcode::kF32Add:
      case Opcode::kF32Sub:
      case Opcode::kF32Mul:
      case Opcode::kF32Div:
      case Opcode::kF32Min:
      case Opcode::kF32Max:
      case Opcode::kF32Copysign:
        LowerBin(instr.op, true, 4);
        return;
      case Opcode::kF64Add:
      case Opcode::kF64Sub:
      case Opcode::kF64Mul:
      case Opcode::kF64Div:
      case Opcode::kF64Min:
      case Opcode::kF64Max:
      case Opcode::kF64Copysign:
        LowerBin(instr.op, true, 8);
        return;
      default:
        break;
    }
  }

  const Module& module_;
  const Function& func_;
  const FuncType& type_;
  const CodegenOptions& options_;
  VFunc vf_;
  std::vector<uint32_t> locals_;
  std::vector<ValEntry> stack_;
  std::vector<BlockCtx> blocks_;
  std::vector<uint32_t> else_labels_;
  // Profile-site ordinals, counted in body order exactly as the interpreter's
  // ProfileCollector counts them (see src/profile/profile.h). Loop sites need
  // no counter: vf_.loop_headers[i] is the i-th kLoop by construction.
  uint32_t next_branch_site_ = 0;
  uint32_t next_indirect_site_ = 0;
};

}  // namespace

VFunc LowerFunction(const Module& module, uint32_t defined_index,
                    const CodegenOptions& options) {
  return Lowerer(module, defined_index, options).Run();
}

}  // namespace nsf
