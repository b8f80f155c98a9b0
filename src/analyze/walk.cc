#include "walk.hh"

#include "asm/disasm.hh"

namespace rtu {

void
DiagReporter::report(Severity severity, const std::string &code, Addr pc,
                     const std::string &message)
{
    if (!seen_.emplace(code, pc).second)
        return;
    Diagnostic d;
    d.severity = severity;
    d.code = code;
    d.pc = pc;
    d.hasPc = true;
    d.function = cfg_.program().functionAt(pc);
    if (cfg_.contains(pc))
        d.insn = disassemble(cfg_.insnAt(pc).raw);
    d.message = message;
    out_.push_back(std::move(d));
}

bool
SpState::apply(Addr pc, const DecodedInsn &d)
{
    if (d.op == Op::kSwitchRf) {
        *this = {kUnknown, 0};
        return true;
    }
    if (!writesRd(d.op) || d.rd != SP)
        return false;
    if (d.op == Op::kAddi && d.rs1 == SP) {
        value += d.imm;
    } else if (d.op == Op::kLui || d.op == Op::kAuipc) {
        const Word upper = static_cast<Word>(d.imm) << 12;
        const Word addr = d.op == Op::kAuipc ? pc + upper : upper;
        *this = {kAbsolute, static_cast<std::int32_t>(addr)};
    } else {
        *this = {kUnknown, 0};  // frame switch (`lw sp`) or computed
    }
    return true;
}

std::string
SpState::describe() const
{
    switch (mode) {
      case kEntryRel:
        return csprintf("entry%+d", static_cast<int>(value));
      case kAbsolute:
        return csprintf("0x%08x", static_cast<Word>(value));
      default:
        return "unknown";
    }
}

} // namespace rtu
