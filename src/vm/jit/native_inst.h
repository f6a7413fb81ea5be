/**
 * @file
 * The register-based native code produced by the JIT translator.
 *
 * A SPARC-flavoured 32-register RISC. Register convention:
 *
 *   r1..r7    operand-stack temporaries (stack position p -> r(1+p));
 *             deeper positions live in spill slots
 *   r8..r15   argument / return registers (result in r8)
 *   r16..r27  local-variable registers (local i -> r(16+i), i < 12);
 *             higher locals live in spill slots
 *   r28,r29   scratch (address arithmetic)
 *   r30       frame pointer, r31 link register (implicit)
 *
 * Each activation gets a fresh register file (SPARC register windows),
 * so no inter-procedural allocation is needed. One NativeInst usually
 * maps to one TraceEvent; the few macro-ops (virtual calls, runtime
 * calls) expand into the short event sequences real code would execute.
 */
#ifndef JRS_VM_JIT_NATIVE_INST_H
#define JRS_VM_JIT_NATIVE_INST_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/address_map.h"
#include "vm/bytecode/class_def.h"

namespace jrs {

/** First operand-stack temp register. */
inline constexpr std::uint8_t kStackRegBase = 1;
/** Number of operand-stack temp registers. */
inline constexpr std::uint8_t kNumStackRegs = 7;
/** First argument register. */
inline constexpr std::uint8_t kArgRegBase = 8;
/** Number of argument registers (args beyond go through spills). */
inline constexpr std::uint8_t kNumArgRegs = 8;
/** First local-variable register. */
inline constexpr std::uint8_t kLocalRegBase = 16;
/** Number of local-variable registers. */
inline constexpr std::uint8_t kNumLocalRegs = 12;
/** Scratch registers. */
inline constexpr std::uint8_t kScratch0 = 28;
inline constexpr std::uint8_t kScratch1 = 29;

/** Native opcodes. */
enum class NOp : std::uint8_t {
    MovI,     ///< rd = imm32 (sign-extended)
    Mov,      ///< rd = rs1
    Add, Sub, Mul, Div, Rem,      ///< rd = rs1 op rs2 (int32, Div/Rem trap on 0)
    And, Or, Xor, Shl, Shr, Ushr, ///< rd = rs1 op rs2
    Neg,      ///< rd = -rs1
    AddI,     ///< rd = rs1 + imm (address math, iinc)
    ShlI,     ///< rd = rs1 << imm (element indexing)
    AddP,     ///< rd = rs1 + rs2 as 64-bit pointer arithmetic
    FAdd, FSub, FMul, FDiv,       ///< float: rd = rs1 op rs2
    FNeg,     ///< rd = -rs1
    FCmp,     ///< rd = -1/0/1 comparing rs1, rs2 (NaN -> -1)
    FSqrt, FSin, FCos,            ///< rd = f(rs1)
    I2F, F2I, I2C, I2B,           ///< conversions rd = cvt(rs1)
    Ld,       ///< rd = *(u32 *)(rs1 + imm)
    LdU16,    ///< rd = *(u16 *)(rs1 + imm)
    LdS8,     ///< rd = *(s8 *)(rs1 + imm)
    St,       ///< *(u32 *)(rs1 + imm) = rs2
    St16,     ///< *(u16 *)(rs1 + imm) = rs2
    St8,      ///< *(u8  *)(rs1 + imm) = rs2
    LdRef,    ///< rd = heap ref decoded from *(u32 *)(rs1 + imm)
    StRef,    ///< *(u32 *)(rs1 + imm) = heap-offset encoding of rs2
    LdSpill,  ///< rd = spill[imm]
    StSpill,  ///< spill[imm] = rs1
    LdStr,    ///< rd = string-literal ref (imm = literal index)
    LdStatic, ///< rd = static slot imm (aux=1 decodes a ref)
    StStatic, ///< static slot imm = rs1 (aux=1 encodes a ref)
    Br,       ///< if cond(aux)(rs1, rs2) goto native index imm
              ///< (rs2 == kNoReg compares against zero)
    Jmp,      ///< goto native index imm
    JmpTbl,   ///< indirect jump via jumpTables[imm], index in rs1
    BndChk,   ///< branch-shaped: if rs1 (u32) >= rs2 throw AIOOBE
    NullChk,  ///< branch-shaped: if rs1 == 0 throw NPE
    CallStatic,   ///< imm = MethodId, args in r8..; result to r8
    CallSpecial,  ///< imm = MethodId (direct instance call)
    CallVirtual,  ///< imm = vtable slot; receiver in r8
    Ret,          ///< return (rs1 = result reg or kNoReg)
    New,          ///< rd = allocate class imm (runtime call)
    NewArr,       ///< rd = allocate array kind aux, length rs1
    ArrLen,       ///< rd = length of array rs1 (a load)
    MonEnter,     ///< runtime call, object in rs1
    MonExit,      ///< runtime call, object in rs1
    Throw,        ///< throw exception ref rs1
    Intrin,       ///< imm = IntrinsicId; 1-arg in rs1, result rd
    ArrCopy,      ///< args in r8..r12 (src, spos, dst, dpos, len)
    Spawn,        ///< rd = new tid; imm = method id; arg in rs1
    Join,         ///< block until thread rs1 completes
};

/** Branch conditions for NOp::Br (int32 comparison of rs1, rs2). */
enum class NCond : std::uint8_t { Eq, Ne, Lt, Ge, Gt, Le };

/** One native instruction (fixed 4 simulated bytes). */
struct NativeInst {
    NOp op = NOp::MovI;
    std::uint8_t rd = 0;
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    std::uint8_t aux = 0;   ///< NCond for Br, ArrayKind for NewArr, ...
    std::int32_t imm = 0;
};

/** Exception-table entry in native-index space. */
struct NativeHandler {
    std::uint32_t startIdx;
    std::uint32_t endIdx;
    std::uint32_t handlerIdx;
    ClassId catchType;
};

/** A translated method installed in the code cache. */
struct NativeMethod {
    MethodId id = 0;
    const Method *src = nullptr;
    std::vector<NativeInst> code;
    std::vector<NativeHandler> handlers;
    /** Switch jump tables (native target indices) for NOp::JmpTbl. */
    std::vector<std::vector<std::uint32_t>> jumpTables;
    /**
     * Bytecode pc -> native instruction index (-1 where no code was
     * emitted). Retained to support on-stack replacement: an
     * interpreter frame paused at bytecode pc resumes at bc2n[pc].
     */
    std::vector<std::int32_t> bc2n;
    SimAddr codeBase = 0;     ///< address of code[0] in seg::kCodeCache
    std::uint16_t numSpills = 0;  ///< spill slots in the frame
    /**
     * Evicted: the extent belongs to the free list (or a newer method)
     * while frames already running this code go on running it.
     */
    bool retired = false;

    /** Simulated pc of instruction @p idx. */
    SimAddr pcOf(std::uint32_t idx) const { return codeBase + 4ull * idx; }

    /** Simulated code size in bytes. */
    std::size_t codeBytes() const { return code.size() * 4; }
};

/** Mnemonic of a native opcode (diagnostics). */
const char *nopName(NOp op);

/** Render one native instruction (diagnostics/tests). */
std::string renderNativeInst(const NativeInst &inst);

} // namespace jrs

#endif // JRS_VM_JIT_NATIVE_INST_H
