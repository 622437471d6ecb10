#include "src/wasm/wat.h"

#include "src/support/str.h"

namespace nsf {

namespace {

std::string BlockTypeToWat(int64_t block_type) {
  if (block_type == kVoidBlockType) {
    return "";
  }
  return StrFormat(" (result %s)",
                   ValTypeName(static_cast<ValType>(static_cast<uint8_t>(block_type & 0x7f))));
}

}  // namespace

std::string InstrToWat(const Instr& instr) {
  std::string s = OpcodeName(instr.op);
  switch (OpcodeImmKind(instr.op)) {
    case ImmKind::kNone:
      break;
    case ImmKind::kBlockType:
      s += BlockTypeToWat(instr.block_type);
      break;
    case ImmKind::kLabel:
    case ImmKind::kFunc:
    case ImmKind::kLocal:
    case ImmKind::kGlobal:
      s += StrFormat(" %u", instr.a);
      break;
    case ImmKind::kCallInd:
      s += StrFormat(" (type %u)", instr.a);
      break;
    case ImmKind::kLabelTable: {
      for (uint32_t t : instr.table) {
        s += StrFormat(" %u", t);
      }
      break;
    }
    case ImmKind::kMem:
      if (instr.b != 0) {
        s += StrFormat(" offset=%u", instr.b);
      }
      break;
    case ImmKind::kMemIdx:
      break;
    case ImmKind::kI32:
      s += StrFormat(" %d", instr.AsI32());
      break;
    case ImmKind::kI64:
      s += StrFormat(" %lld", static_cast<long long>(instr.AsI64()));
      break;
    case ImmKind::kF32:
      s += StrFormat(" %g", static_cast<double>(instr.AsF32()));
      break;
    case ImmKind::kF64:
      s += StrFormat(" %g", instr.AsF64());
      break;
  }
  return s;
}

std::string ModuleToWat(const Module& module) {
  std::string out = "(module";
  if (!module.name.empty()) {
    out += " $" + module.name;
  }
  out += "\n";
  for (size_t i = 0; i < module.types.size(); i++) {
    out += StrFormat("  (type %zu %s)\n", i, FuncTypeToString(module.types[i]).c_str());
  }
  for (const Import& imp : module.imports) {
    const char* kind = "";
    switch (imp.kind) {
      case ExternalKind::kFunc:
        kind = "func";
        break;
      case ExternalKind::kTable:
        kind = "table";
        break;
      case ExternalKind::kMemory:
        kind = "memory";
        break;
      case ExternalKind::kGlobal:
        kind = "global";
        break;
    }
    out += StrFormat("  (import \"%s\" \"%s\" (%s))\n", imp.module.c_str(), imp.name.c_str(),
                     kind);
  }
  for (const MemorySec& m : module.memories) {
    if (m.limits.max.has_value()) {
      out += StrFormat("  (memory %u %u)\n", m.limits.min, *m.limits.max);
    } else {
      out += StrFormat("  (memory %u)\n", m.limits.min);
    }
  }
  for (const Table& t : module.tables) {
    out += StrFormat("  (table %u funcref)\n", t.limits.min);
  }
  for (size_t i = 0; i < module.globals.size(); i++) {
    const Global& g = module.globals[i];
    out += StrFormat("  (global %zu %s%s (%s))\n", i, g.type.mut ? "mut " : "",
                     ValTypeName(g.type.type), InstrToWat(g.init).c_str());
  }
  uint32_t base = module.NumImportedFuncs();
  for (size_t i = 0; i < module.functions.size(); i++) {
    const Function& f = module.functions[i];
    out += StrFormat("  (func %u", base + static_cast<uint32_t>(i));
    if (!f.debug_name.empty()) {
      out += " $" + f.debug_name;
    }
    out += ' ';  // two appends: `" " + ...` trips GCC 12's false -Wrestrict at -O3
    out += FuncTypeToString(module.types[f.type_index]);
    if (!f.locals.empty()) {
      out += " (local";
      for (ValType t : f.locals) {
        out += StrFormat(" %s", ValTypeName(t));
      }
      out += ")";
    }
    out += "\n";
    int indent = 2;
    for (const Instr& instr : f.body) {
      if (instr.op == Opcode::kEnd || instr.op == Opcode::kElse) {
        indent = indent > 2 ? indent - 1 : 2;
      }
      for (int s = 0; s < indent; s++) {
        out += "  ";
      }
      out += InstrToWat(instr) + "\n";
      if (instr.op == Opcode::kBlock || instr.op == Opcode::kLoop || instr.op == Opcode::kIf ||
          instr.op == Opcode::kElse) {
        indent++;
      }
    }
    out += "  )\n";
  }
  for (const Export& e : module.exports) {
    const char* kind = "";
    switch (e.kind) {
      case ExternalKind::kFunc:
        kind = "func";
        break;
      case ExternalKind::kTable:
        kind = "table";
        break;
      case ExternalKind::kMemory:
        kind = "memory";
        break;
      case ExternalKind::kGlobal:
        kind = "global";
        break;
    }
    out += StrFormat("  (export \"%s\" (%s %u))\n", e.name.c_str(), kind, e.index);
  }
  out += ")\n";
  return out;
}

}  // namespace nsf
