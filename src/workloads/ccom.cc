/**
 * @file
 * Implementation of the miniature compiler workload.
 *
 * Pipeline per function:
 *   1. lex:      raw source words -> (kind, value) token records
 *   2. parse:    tokens -> AST node pool (operator-precedence stack)
 *   3. fold:     constant subtrees rewritten in place
 *   4. codegen:  AST -> three-address instruction buffer
 *
 * All pools live in traced memory and are reused across functions, so
 * the footprint is the per-function working set times one, while the
 * trace length grows with the function count.
 */

#include "workloads/ccom.hh"

#include <random>

#include "workloads/traced_memory.hh"

namespace jcache::workloads
{

namespace
{

using I32 = TracedArray<std::int32_t>;

// Token kinds.
constexpr std::int32_t kTokNum = 0;
constexpr std::int32_t kTokVar = 1;
constexpr std::int32_t kTokOp = 2;     // value: 0 '+', 1 '-', 2 '*'
constexpr std::int32_t kTokLParen = 3;
constexpr std::int32_t kTokRParen = 4;
constexpr std::int32_t kTokEnd = 5;

// AST node layout: 4 int32 fields per node.
constexpr unsigned kNodeFields = 4;
constexpr unsigned kFKind = 0;   // 0 num, 1 var, 2 binop
constexpr unsigned kFValue = 1;  // literal / var id / op code
constexpr unsigned kFLhs = 2;
constexpr unsigned kFRhs = 3;

/** Operator-precedence (0 lowest). */
int
precedence(std::int32_t op)
{
    return op == 2 ? 1 : 0;
}

/**
 * State for compiling one function; pools are owned by the caller and
 * reused.
 */
struct Compiler
{
    trace::TraceRecorder& rec;
    I32& source;    //!< raw "source" word stream
    I32& tokens;    //!< lexed (kind, value) pairs
    I32& nodes;     //!< AST node pool
    I32& code;      //!< emitted instructions (op, a, b, dest)
    I32& stack;     //!< parser value/operator stack
    std::mt19937_64& rng;

    unsigned sourceLen = 0;
    unsigned tokenCount = 0;
    unsigned nodeCount = 0;
    unsigned codeCount = 0;

    /** Emit one random expression into the raw source stream. */
    void
    genSource(unsigned target_tokens)
    {
        std::uniform_int_distribution<int> pick(0, 99);
        unsigned depth = 0;
        bool want_operand = true;
        unsigned i = 0;
        // Two source words per token: kind then value, as a character
        // stream stand-in.  Untraced pokes: the source buffer is
        // filled by the I/O system, not by the program's own stores.
        auto put = [&](std::int32_t kind, std::int32_t value) {
            source.poke(i * 2, kind);
            source.poke(i * 2 + 1, value);
            ++i;
        };
        while (i < target_tokens - 2) {
            if (want_operand) {
                int r = pick(rng);
                if (r < 20 && depth < 8) {
                    put(kTokLParen, 0);
                    ++depth;
                } else if (r < 65) {
                    put(kTokNum, pick(rng));
                    want_operand = false;
                } else {
                    put(kTokVar, pick(rng) % 32);
                    want_operand = false;
                }
            } else {
                int r = pick(rng);
                if (r < 25 && depth > 0) {
                    put(kTokRParen, 0);
                    --depth;
                } else {
                    put(kTokOp, r % 3);
                    want_operand = true;
                }
            }
        }
        if (want_operand)
            put(kTokNum, 7);
        while (depth > 0) {
            put(kTokRParen, 0);
            --depth;
        }
        put(kTokEnd, 0);
        sourceLen = i;
    }

    /** Pass 1: read source words, write token records. */
    void
    lex()
    {
        tokenCount = 0;
        for (unsigned i = 0; i < sourceLen; ++i) {
            std::int32_t kind = source.get(i * 2);
            std::int32_t value = source.get(i * 2 + 1);
            tokens.set(tokenCount * 2, kind);
            tokens.set(tokenCount * 2 + 1, value);
            ++tokenCount;
            rec.tick(3);
        }
    }

    std::int32_t
    newNode(std::int32_t kind, std::int32_t value, std::int32_t lhs,
            std::int32_t rhs)
    {
        auto id = static_cast<std::int32_t>(nodeCount++);
        std::size_t base =
            static_cast<std::size_t>(id) * kNodeFields;
        nodes.set(base + kFKind, kind);
        nodes.set(base + kFValue, value);
        nodes.set(base + kFLhs, lhs);
        nodes.set(base + kFRhs, rhs);
        rec.tick(2);
        return id;
    }

    /**
     * Pass 2: operator-precedence parse reading token records and
     * writing AST nodes; the explicit stack lives in traced memory
     * like a real parser's.
     */
    std::int32_t
    parse()
    {
        nodeCount = 0;
        unsigned sp = 0;      // operand stack pointer (node ids)
        unsigned osp = 0;     // operator stack pointer
        // Operand stack occupies stack[0..256); operators [256..512).
        auto push_val = [&](std::int32_t id) {
            stack.set(sp++, id);
            rec.tick(1);
        };
        auto pop_val = [&]() {
            rec.tick(1);
            return stack.get(--sp);
        };
        auto push_op = [&](std::int32_t op) {
            stack.set(256 + osp++, op);
            rec.tick(1);
        };
        auto pop_op = [&]() {
            rec.tick(1);
            return stack.get(256 + --osp);
        };
        auto reduce = [&]() {
            std::int32_t op = pop_op();
            std::int32_t rhs = pop_val();
            std::int32_t lhs = pop_val();
            push_val(newNode(2, op, lhs, rhs));
        };

        constexpr std::int32_t kOpLParen = 100;
        for (unsigned i = 0; i < tokenCount; ++i) {
            std::int32_t kind = tokens.get(i * 2);
            std::int32_t value = tokens.get(i * 2 + 1);
            rec.tick(2);
            switch (kind) {
              case kTokNum:
                push_val(newNode(0, value, -1, -1));
                break;
              case kTokVar:
                push_val(newNode(1, value, -1, -1));
                break;
              case kTokLParen:
                push_op(kOpLParen);
                break;
              case kTokRParen:
                while (osp > 0 && stack.get(256 + osp - 1) !=
                       kOpLParen) {
                    reduce();
                }
                if (osp > 0)
                    pop_op();  // discard '('
                break;
              case kTokOp:
                while (osp > 0) {
                    std::int32_t top = stack.get(256 + osp - 1);
                    rec.tick(1);
                    if (top == kOpLParen ||
                        precedence(top) < precedence(value)) {
                        break;
                    }
                    reduce();
                }
                push_op(value);
                break;
              case kTokEnd:
              default:
                break;
            }
        }
        while (osp > 0)
            reduce();
        return sp > 0 ? pop_val() : -1;
    }

    /** Pass 3: fold constant subtrees in place (read + rewrite). */
    bool
    fold(std::int32_t id)
    {
        if (id < 0)
            return false;
        std::size_t base = static_cast<std::size_t>(id) * kNodeFields;
        std::int32_t kind = nodes.get(base + kFKind);
        rec.tick(1);
        if (kind == 0)
            return true;   // literal
        if (kind == 1)
            return false;  // variable
        std::int32_t lhs = nodes.get(base + kFLhs);
        std::int32_t rhs = nodes.get(base + kFRhs);
        bool lconst = fold(lhs);
        bool rconst = fold(rhs);
        if (!(lconst && rconst))
            return false;
        std::int32_t op = nodes.get(base + kFValue);
        std::int32_t a = nodes.get(
            static_cast<std::size_t>(lhs) * kNodeFields + kFValue);
        std::int32_t b = nodes.get(
            static_cast<std::size_t>(rhs) * kNodeFields + kFValue);
        // Fold in uint32 so an overflowing constant wraps instead of
        // being undefined; the wrapped values are the ones the
        // traces have always held.
        const auto ua = static_cast<std::uint32_t>(a);
        const auto ub = static_cast<std::uint32_t>(b);
        const std::uint32_t folded = op == 0 ? ua + ub
                                   : op == 1 ? ua - ub
                                             : ua * ub;
        const auto result = static_cast<std::int32_t>(folded);
        nodes.set(base + kFKind, 0);
        nodes.set(base + kFValue, result);
        rec.tick(4);
        return true;
    }

    /**
     * Pass 3.5: semantic check — a read-only walk computing each
     * subtree's "type" (here: whether it involves a variable), as a
     * compiler's type checker would.
     */
    std::int32_t
    typecheck(std::int32_t id)
    {
        if (id < 0)
            return 0;
        std::size_t base = static_cast<std::size_t>(id) * kNodeFields;
        std::int32_t kind = nodes.get(base + kFKind);
        rec.tick(2);
        if (kind == 0)
            return 0;
        if (kind == 1)
            return 1;
        std::int32_t lt = typecheck(nodes.get(base + kFLhs));
        std::int32_t rt = typecheck(nodes.get(base + kFRhs));
        rec.tick(2);
        return lt | rt;
    }

    /** Pass 4: post-order codegen into the instruction buffer. */
    std::int32_t
    codegen(std::int32_t id, std::int32_t& next_reg)
    {
        std::size_t base = static_cast<std::size_t>(id) * kNodeFields;
        std::int32_t kind = nodes.get(base + kFKind);
        std::int32_t value = nodes.get(base + kFValue);
        rec.tick(2);
        std::int32_t dest = next_reg++;
        if (kind == 2) {
            std::int32_t ra =
                codegen(nodes.get(base + kFLhs), next_reg);
            std::int32_t rb =
                codegen(nodes.get(base + kFRhs), next_reg);
            std::size_t c =
                static_cast<std::size_t>(codeCount++) * 4;
            code.set(c + 0, value);  // opcode
            code.set(c + 1, ra);
            code.set(c + 2, rb);
            code.set(c + 3, dest);
            rec.tick(2);
        } else {
            std::size_t c =
                static_cast<std::size_t>(codeCount++) * 4;
            code.set(c + 0, kind == 0 ? 10 : 11);  // li / lvar
            code.set(c + 1, value);
            code.set(c + 2, 0);
            code.set(c + 3, dest);
            rec.tick(2);
        }
        return dest;
    }
};

} // namespace

void
CcomWorkload::run(trace::TraceRecorder& rec) const
{
    TracedMemory mem(rec);

    // Pools sized for the largest function and reused across
    // functions, like a compiler's arena between compilations.
    constexpr unsigned kMaxTokens = 1600;
    I32 source(mem, kMaxTokens * 2);
    I32 tokens(mem, kMaxTokens * 2);
    I32 nodes(mem, kMaxTokens * kNodeFields);
    I32 code(mem, kMaxTokens * 4);
    I32 stack(mem, 512);

    std::mt19937_64 rng(config_.seed);
    std::uniform_int_distribution<unsigned> size_dist(150, 1500);

    unsigned functions = functions_ * config_.scale;
    Compiler compiler{rec, source, tokens, nodes, code, stack, rng};

    for (unsigned f = 0; f < functions; ++f) {
        unsigned target = size_dist(rng);
        compiler.genSource(target);
        compiler.lex();
        std::int32_t root = compiler.parse();
        compiler.typecheck(root);
        compiler.fold(root);
        std::int32_t next_reg = 0;
        compiler.codeCount = 0;
        if (root >= 0)
            compiler.codegen(root, next_reg);
        rec.tick(20);  // per-function bookkeeping
    }
}

} // namespace jcache::workloads
