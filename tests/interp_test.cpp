// Interpreter semantics tests: numerics, control flow, calls, memory,
// traps, host functions, and execution statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "test_util.hpp"

namespace acctee::interp {
namespace {

using testutil::make_instance;
using testutil::run_f32;
using testutil::run_f64;
using testutil::run_i32;
using testutil::run_i64;
using V = TypedValue;

// ---------------------------------------------------------------------------
// Numeric semantics
// ---------------------------------------------------------------------------

TEST(Numerics, I32Basics) {
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const 20 i32.const 22 i32.add)))", "f"), 42);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const 5 i32.const 7 i32.sub)))", "f"), -2);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const -3 i32.const 7 i32.mul)))", "f"), -21);
}

TEST(Numerics, I32DivisionSemantics) {
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const -7 i32.const 2 i32.div_s)))", "f"), -3);  // trunc toward 0
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const -7 i32.const 2 i32.div_u)))", "f"),
            static_cast<int32_t>((0xFFFFFFF9u) / 2));
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const -7 i32.const 2 i32.rem_s)))", "f"), -1);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const -2147483648 i32.const -1 i32.rem_s)))", "f"), 0);
}

TEST(Numerics, I32ShiftsMaskTheCount) {
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const 1 i32.const 33 i32.shl)))", "f"), 2);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const -8 i32.const 1 i32.shr_s)))", "f"), -4);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const -8 i32.const 1 i32.shr_u)))", "f"),
            static_cast<int32_t>(0xFFFFFFF8u >> 1));
}

TEST(Numerics, I32Rotates) {
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const 0x80000001 i32.const 1 i32.rotl)))", "f"), 3);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const 3 i32.const 1 i32.rotr)))", "f"),
            static_cast<int32_t>(0x80000001u));
}

TEST(Numerics, BitCounting) {
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const 0 i32.clz)))", "f"), 32);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const 0x00800000 i32.clz)))", "f"), 8);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const 0 i32.ctz)))", "f"), 32);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i32.const 0xf0f0 i32.popcnt)))", "f"), 8);
  EXPECT_EQ(run_i64(R"((module (func (export "f") (result i64)
    i64.const 1 i64.clz)))", "f"), 63);
}

TEST(Numerics, I64Basics) {
  EXPECT_EQ(run_i64(R"((module (func (export "f") (result i64)
    i64.const 0x100000000 i64.const 3 i64.mul)))", "f"), 0x300000000LL);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i64.const -1 i64.const 1 i64.lt_s)))", "f"), 1);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i64.const -1 i64.const 1 i64.lt_u)))", "f"), 0);
}

TEST(Numerics, FloatArithmetic) {
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    f64.const 0.5 f64.const 0.25 f64.add)))", "f"), 0.75);
  EXPECT_FLOAT_EQ(run_f32(R"((module (func (export "f") (result f32)
    f32.const 9 f32.sqrt)))", "f"), 3.0f);
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    f64.const 7 f64.const 2 f64.div)))", "f"), 3.5);
}

TEST(Numerics, FloatRounding) {
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    f64.const 2.5 f64.nearest)))", "f"), 2.0);  // round half to even
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    f64.const 3.5 f64.nearest)))", "f"), 4.0);
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    f64.const -1.5 f64.floor)))", "f"), -2.0);
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    f64.const -1.5 f64.ceil)))", "f"), -1.0);
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    f64.const -1.7 f64.trunc)))", "f"), -1.0);
}

TEST(Numerics, MinMaxNanAndSignedZero) {
  EXPECT_TRUE(std::isnan(run_f64(R"((module (func (export "f") (result f64)
    f64.const nan f64.const 1 f64.min)))", "f")));
  EXPECT_TRUE(std::isnan(run_f64(R"((module (func (export "f") (result f64)
    f64.const 1 f64.const nan f64.max)))", "f")));
  double mn = run_f64(R"((module (func (export "f") (result f64)
    f64.const -0.0 f64.const 0.0 f64.min)))", "f");
  EXPECT_TRUE(std::signbit(mn));
  double mx = run_f64(R"((module (func (export "f") (result f64)
    f64.const -0.0 f64.const 0.0 f64.max)))", "f");
  EXPECT_FALSE(std::signbit(mx));
}

TEST(Numerics, Copysign) {
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    f64.const 3 f64.const -1 f64.copysign)))", "f"), -3.0);
}

TEST(Numerics, Conversions) {
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    i64.const 0x1_0000_0005 i32.wrap_i64)))", "f"), 5);
  EXPECT_EQ(run_i64(R"((module (func (export "f") (result i64)
    i32.const -1 i64.extend_i32_s)))", "f"), -1);
  EXPECT_EQ(run_i64(R"((module (func (export "f") (result i64)
    i32.const -1 i64.extend_i32_u)))", "f"), 0xffffffffLL);
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    f64.const -3.9 i32.trunc_f64_s)))", "f"), -3);
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    i64.const -2 f64.convert_i64_s)))", "f"), -2.0);
  EXPECT_DOUBLE_EQ(run_f64(R"((module (func (export "f") (result f64)
    i64.const -1 f64.convert_i64_u)))", "f"), 18446744073709551616.0);
  EXPECT_FLOAT_EQ(run_f32(R"((module (func (export "f") (result f32)
    f64.const 0.1 f32.demote_f64)))", "f"), 0.1f);
}

TEST(Numerics, Reinterpret) {
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    f32.const 1 i32.reinterpret_f32)))", "f"), 0x3f800000);
  EXPECT_FLOAT_EQ(run_f32(R"((module (func (export "f") (result f32)
    i32.const 0x40490fdb f32.reinterpret_i32)))", "f"), 3.14159274f);
}

// ---------------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------------

TEST(Control, IfElse) {
  const char* wat = R"((module (func (export "sign") (param i32) (result i32)
    local.get 0
    i32.const 0
    i32.lt_s
    if (result i32)
      i32.const -1
    else
      local.get 0
      i32.const 0
      i32.gt_s
    end
  )))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("sign", {V::make_i32(-5)})[0].i32(), -1);
  EXPECT_EQ(inst.invoke("sign", {V::make_i32(0)})[0].i32(), 0);
  EXPECT_EQ(inst.invoke("sign", {V::make_i32(9)})[0].i32(), 1);
}

TEST(Control, LoopSum) {
  // sum 1..n with a do-while loop
  const char* wat = R"((module (func (export "sum") (param i32) (result i32)
    (local $acc i32)
    loop $l
      local.get $acc
      local.get 0
      i32.add
      local.set $acc
      local.get 0
      i32.const 1
      i32.sub
      local.tee 0
      br_if $l
    end
    local.get $acc
  )))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("sum", {V::make_i32(10)})[0].i32(), 55);
  EXPECT_EQ(inst.invoke("sum", {V::make_i32(1000)})[0].i32(), 500500);
}

TEST(Control, BlockBreakCarriesValue) {
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    block (result i32)
      i32.const 7
      br 0
      unreachable
    end
  )))", "f"), 7);
}

TEST(Control, BrIfKeepsValueWhenNotTaken) {
  const char* wat = R"((module (func (export "f") (param i32) (result i32)
    block $b (result i32)
      i32.const 100
      local.get 0
      br_if $b
      drop
      i32.const 200
    end
  )))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("f", {V::make_i32(1)})[0].i32(), 100);
  EXPECT_EQ(inst.invoke("f", {V::make_i32(0)})[0].i32(), 200);
}

TEST(Control, BrTableDispatch) {
  const char* wat = R"((module (func (export "f") (param i32) (result i32)
    block $default
      block $two
        block $one
          block $zero
            local.get 0
            br_table $zero $one $two $default
          end
          i32.const 100
          return
        end
        i32.const 101
        return
      end
      i32.const 102
      return
    end
    i32.const 999
  )))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("f", {V::make_i32(0)})[0].i32(), 100);
  EXPECT_EQ(inst.invoke("f", {V::make_i32(1)})[0].i32(), 101);
  EXPECT_EQ(inst.invoke("f", {V::make_i32(2)})[0].i32(), 102);
  EXPECT_EQ(inst.invoke("f", {V::make_i32(3)})[0].i32(), 999);
  EXPECT_EQ(inst.invoke("f", {V::make_i32(-1)})[0].i32(), 999);
}

TEST(Control, NestedLoopsWithOuterBreak) {
  // Search a 2D iteration space; break out of both loops via labeled br.
  const char* wat = R"((module (func (export "f") (result i32)
    (local $i i32) (local $j i32) (local $count i32)
    block $done
      i32.const 0
      local.set $i
      loop $outer
        i32.const 0
        local.set $j
        loop $inner
          local.get $count
          i32.const 1
          i32.add
          local.set $count
          local.get $count
          i32.const 17
          i32.eq
          br_if $done
          local.get $j
          i32.const 1
          i32.add
          local.tee $j
          i32.const 5
          i32.lt_s
          br_if $inner
        end
        local.get $i
        i32.const 1
        i32.add
        local.tee $i
        i32.const 5
        i32.lt_s
        br_if $outer
      end
    end
    local.get $count
  )))";
  EXPECT_EQ(run_i32(wat, "f"), 17);
}

TEST(Control, Select) {
  const char* wat = R"((module (func (export "max") (param i32 i32) (result i32)
    local.get 0
    local.get 1
    local.get 0
    local.get 1
    i32.gt_s
    select
  )))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("max", {V::make_i32(3), V::make_i32(9)})[0].i32(), 9);
  EXPECT_EQ(inst.invoke("max", {V::make_i32(-3), V::make_i32(-9)})[0].i32(), -3);
}

TEST(Control, ReturnFromNestedBlocks) {
  EXPECT_EQ(run_i32(R"((module (func (export "f") (result i32)
    block
      block
        i32.const 5
        return
      end
    end
    i32.const 1
  )))", "f"), 5);
}

// ---------------------------------------------------------------------------
// Functions and calls
// ---------------------------------------------------------------------------

TEST(Calls, RecursiveFibonacci) {
  const char* wat = R"((module
    (func $fib (export "fib") (param i32) (result i32)
      local.get 0
      i32.const 2
      i32.lt_s
      if (result i32)
        local.get 0
      else
        local.get 0
        i32.const 1
        i32.sub
        call $fib
        local.get 0
        i32.const 2
        i32.sub
        call $fib
        i32.add
      end
    )
  ))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("fib", {V::make_i32(10)})[0].i32(), 55);
  EXPECT_EQ(inst.invoke("fib", {V::make_i32(20)})[0].i32(), 6765);
}

TEST(Calls, MutualRecursion) {
  const char* wat = R"((module
    (func $is_even (export "is_even") (param i32) (result i32)
      local.get 0
      i32.eqz
      if (result i32)
        i32.const 1
      else
        local.get 0
        i32.const 1
        i32.sub
        call $is_odd
      end
    )
    (func $is_odd (param i32) (result i32)
      local.get 0
      i32.eqz
      if (result i32)
        i32.const 0
      else
        local.get 0
        i32.const 1
        i32.sub
        call $is_even
      end
    )
  ))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("is_even", {V::make_i32(10)})[0].i32(), 1);
  EXPECT_EQ(inst.invoke("is_even", {V::make_i32(7)})[0].i32(), 0);
}

TEST(Calls, CallIndirect) {
  const char* wat = R"((module
    (type $binop (func (param i32 i32) (result i32)))
    (table 2 funcref)
    (elem (i32.const 0) $add $mul)
    (func $add (type $binop) local.get 0 local.get 1 i32.add)
    (func $mul (type $binop) local.get 0 local.get 1 i32.mul)
    (func (export "apply") (param i32 i32 i32) (result i32)
      local.get 1
      local.get 2
      local.get 0
      call_indirect (type $binop)
    )
  ))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("apply", {V::make_i32(0), V::make_i32(3),
                                  V::make_i32(4)})[0].i32(), 7);
  EXPECT_EQ(inst.invoke("apply", {V::make_i32(1), V::make_i32(3),
                                  V::make_i32(4)})[0].i32(), 12);
}

TEST(Calls, StartFunctionRunsAtInstantiation) {
  const char* wat = R"((module
    (global $g (mut i32) (i32.const 0))
    (export "g" (global $g))
    (func $init i32.const 99 global.set $g)
    (start $init)
  ))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.read_global("g").i32(), 99);
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

TEST(Memory, LoadStoreRoundTrip) {
  const char* wat = R"((module
    (memory 1)
    (func (export "rt64") (param i64) (result i64)
      i32.const 128
      local.get 0
      i64.store
      i32.const 128
      i64.load
    )
    (func (export "rtf") (param f64) (result f64)
      i32.const 64
      local.get 0
      f64.store
      i32.const 64
      f64.load
    )
  ))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("rt64", {V::make_i64(-123456789012345LL)})[0].i64(),
            -123456789012345LL);
  EXPECT_DOUBLE_EQ(inst.invoke("rtf", {V::make_f64(2.718281828)})[0].f64(),
                   2.718281828);
}

TEST(Memory, SubWordSignExtension) {
  const char* wat = R"((module
    (memory 1)
    (func (export "f") (result i32)
      i32.const 0
      i32.const 0xff
      i32.store8
      i32.const 0
      i32.load8_s
    )
    (func (export "g") (result i32)
      i32.const 0
      i32.const 0xff
      i32.store8
      i32.const 0
      i32.load8_u
    )
    (func (export "h") (result i64)
      i32.const 8
      i64.const -2
      i64.store32
      i32.const 8
      i64.load32_s
    )
  ))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("f")[0].i32(), -1);
  EXPECT_EQ(inst.invoke("g")[0].i32(), 255);
  EXPECT_EQ(inst.invoke("h")[0].i64(), -2);
}

TEST(Memory, LittleEndianLayout) {
  const char* wat = R"((module
    (memory 1)
    (func (export "f") (result i32)
      i32.const 0
      i32.const 0x04030201
      i32.store
      i32.const 0
      i32.load8_u
    )
  ))";
  EXPECT_EQ(run_i32(wat, "f"), 1);
}

TEST(Memory, DataSegmentsInitialise) {
  const char* wat = R"((module
    (memory 1)
    (data (i32.const 10) "AB")
    (func (export "f") (result i32)
      i32.const 11
      i32.load8_u
    )
  ))";
  EXPECT_EQ(run_i32(wat, "f"), 'B');
}

TEST(Memory, StaticOffsetApplies) {
  const char* wat = R"((module
    (memory 1)
    (func (export "f") (result i32)
      i32.const 100
      i32.const 7
      i32.store offset=24
      i32.const 124
      i32.load
    )
  ))";
  EXPECT_EQ(run_i32(wat, "f"), 7);
}

TEST(Memory, GrowAndSize) {
  const char* wat = R"((module
    (memory 1 4)
    (func (export "f") (result i32)
      memory.size           ;; 1
      i32.const 2
      memory.grow           ;; returns old size 1
      i32.add               ;; 2
      memory.size           ;; 3
      i32.add               ;; 5
    )
    (func (export "toofar") (result i32)
      i32.const 10
      memory.grow
    )
  ))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("f")[0].i32(), 5);
  EXPECT_EQ(inst.invoke("toofar")[0].i32(), -1);
}

TEST(Memory, PeakTrackingAfterGrow) {
  const char* wat = R"((module
    (memory 1 8)
    (func (export "f")
      i32.const 3
      memory.grow
      drop
    )
  ))";
  Instance inst = make_instance(wat);
  inst.invoke("f");
  EXPECT_EQ(inst.stats().peak_memory_bytes, 4 * wasm::kPageSize);
}

// ---------------------------------------------------------------------------
// Traps
// ---------------------------------------------------------------------------

TEST(Traps, OutOfBoundsAccess) {
  const char* wat = R"((module
    (memory 1)
    (func (export "f") (param i32) (result i32)
      local.get 0
      i32.load
    )
  ))";
  Instance inst = make_instance(wat);
  EXPECT_EQ(inst.invoke("f", {V::make_i32(0)})[0].i32(), 0);
  EXPECT_THROW(inst.invoke("f", {V::make_i32(65536)}), TrapError);
  EXPECT_THROW(inst.invoke("f", {V::make_i32(65533)}), TrapError);
  EXPECT_THROW(inst.invoke("f", {V::make_i32(-4)}), TrapError);
}

TEST(Traps, DivideByZero) {
  const char* wat = R"((module (func (export "f") (param i32) (result i32)
    i32.const 1
    local.get 0
    i32.div_s
  )))";
  Instance inst = make_instance(wat);
  EXPECT_THROW(inst.invoke("f", {V::make_i32(0)}), TrapError);
}

TEST(Traps, SignedOverflowDivision) {
  const char* wat = R"((module (func (export "f") (result i32)
    i32.const -2147483648
    i32.const -1
    i32.div_s
  )))";
  Instance inst = make_instance(wat);
  EXPECT_THROW(inst.invoke("f"), TrapError);
}

TEST(Traps, Unreachable) {
  Instance inst = make_instance("(module (func (export \"f\") unreachable))");
  EXPECT_THROW(inst.invoke("f"), TrapError);
}

TEST(Traps, TruncNanAndOverflow) {
  const char* wat = R"((module
    (func (export "nan") (result i32) f64.const nan i32.trunc_f64_s)
    (func (export "big") (result i32) f64.const 3e9 i32.trunc_f64_s)
    (func (export "neg") (result i32) f64.const -1 i32.trunc_f64_u)
  ))";
  Instance inst = make_instance(wat);
  EXPECT_THROW(inst.invoke("nan"), TrapError);
  EXPECT_THROW(inst.invoke("big"), TrapError);
  EXPECT_THROW(inst.invoke("neg"), TrapError);
}

TEST(Traps, CallStackExhaustion) {
  const char* wat = R"((module (func $f (export "f") call $f))";
  Instance inst = make_instance(std::string(wat) + ")");
  EXPECT_THROW(inst.invoke("f"), TrapError);
}

// A trapped call must leave nothing behind: each trap here leaves one frame
// and its operand-stack slots unless invoke unwinds them, and at
// max_call_depth = 100 the 101st call would then exhaust the call stack.
TEST(Traps, TrappedCallsLeaveInstanceReusable) {
  Instance::Options opts;
  opts.cache_model = false;
  opts.max_call_depth = 100;
  Instance inst = make_instance(R"((module
    (func (export "div") (param i32 i32) (result i32)
      local.get 0 local.get 1 i32.div_s)
    (func (export "seven") (result i32) i32.const 7)))",
                                {}, opts);
  for (int i = 0; i < 100; ++i) {
    EXPECT_THROW(inst.invoke("div", {V::make_i32(7), V::make_i32(0)}),
                 TrapError);
  }
  EXPECT_EQ(inst.invoke("seven").at(0).i32(), 7);
  EXPECT_EQ(inst.invoke("div", {V::make_i32(7), V::make_i32(2)}).at(0).i32(),
            3);
}

TEST(Traps, CallStackExhaustionLeavesInstanceReusable) {
  Instance inst = make_instance(R"((module
    (func $f (export "f") call $f)
    (func (export "seven") (result i32) i32.const 7)))");
  EXPECT_THROW(inst.invoke("f"), TrapError);
  EXPECT_EQ(inst.invoke("seven").at(0).i32(), 7);
  EXPECT_THROW(inst.invoke("f"), TrapError);
  EXPECT_EQ(inst.invoke("seven").at(0).i32(), 7);
}

TEST(Traps, CallIndirectFailures) {
  const char* wat = R"((module
    (type $t0 (func (result i32)))
    (type $t1 (func (result i64)))
    (table 3 funcref)
    (elem (i32.const 0) $f)
    (func $f (type $t0) i32.const 1)
    (func (export "oob") (result i32)
      i32.const 9
      call_indirect (type $t0))
    (func (export "null") (result i32)
      i32.const 1
      call_indirect (type $t0))
    (func (export "badtype") (result i64)
      i32.const 0
      call_indirect (type $t1))
  ))";
  Instance inst = make_instance(wat);
  EXPECT_THROW(inst.invoke("oob"), TrapError);
  EXPECT_THROW(inst.invoke("null"), TrapError);
  EXPECT_THROW(inst.invoke("badtype"), TrapError);
}

TEST(Traps, InstructionLimitStopsRunawayLoop) {
  const char* wat = R"((module (func (export "f")
    loop $l
      br $l
    end
  )))";
  wasm::Module module = wasm::parse_wat(wat);
  wasm::validate(module);
  Instance::Options opts;
  opts.cache_model = false;
  opts.max_instructions = 10000;
  Instance inst(std::move(module), {}, opts);
  EXPECT_THROW(inst.invoke("f"), TrapError);
  EXPECT_LE(inst.stats().instructions, 10001u);
}

// ---------------------------------------------------------------------------
// Host functions
// ---------------------------------------------------------------------------

TEST(Host, ImportedFunctionReceivesArgsAndReturns) {
  ImportMap imports;
  std::vector<int32_t> seen;
  imports.add("env", "log", wasm::FuncType{{wasm::ValType::I32}, {}},
              [&](std::span<const TypedValue> args, HostContext&) -> Values {
                seen.push_back(args[0].i32());
                return {};
              });
  imports.add("env", "magic", wasm::FuncType{{}, {wasm::ValType::I32}},
              [](std::span<const TypedValue>, HostContext&) -> Values {
                return {TypedValue::make_i32(1234)};
              });
  const char* wat = R"((module
    (import "env" "log" (func $log (param i32)))
    (import "env" "magic" (func $magic (result i32)))
    (func (export "f") (result i32)
      i32.const 7
      call $log
      i32.const 8
      call $log
      call $magic
    )
  ))";
  Instance inst = testutil::make_instance(wat, std::move(imports));
  EXPECT_EQ(inst.invoke("f")[0].i32(), 1234);
  EXPECT_EQ(seen, (std::vector<int32_t>{7, 8}));
  EXPECT_EQ(inst.stats().host_calls, 3u);
}

TEST(Host, HostCanTouchLinearMemory) {
  ImportMap imports;
  imports.add("env", "fill",
              wasm::FuncType{{wasm::ValType::I32, wasm::ValType::I32}, {}},
              [](std::span<const TypedValue> args, HostContext& ctx) -> Values {
                Bytes data(static_cast<size_t>(args[1].i32()), 0x5a);
                ctx.memory->write_bytes(args[0].u32(), data);
                return {};
              });
  const char* wat = R"((module
    (import "env" "fill" (func $fill (param i32 i32)))
    (memory 1)
    (func (export "f") (result i32)
      i32.const 32
      i32.const 4
      call $fill
      i32.const 34
      i32.load8_u
    )
  ))";
  Instance inst = testutil::make_instance(wat, std::move(imports));
  EXPECT_EQ(inst.invoke("f")[0].i32(), 0x5a);
}

TEST(Host, UnresolvedImportFailsAtLink) {
  const char* wat = R"((module
    (import "env" "missing" (func))
  ))";
  wasm::Module module = wasm::parse_wat(wat);
  wasm::validate(module);
  EXPECT_THROW(Instance(std::move(module), {}), LinkError);
}

TEST(Host, ImportTypeMismatchFailsAtLink) {
  ImportMap imports;
  imports.add("env", "f", wasm::FuncType{{wasm::ValType::I64}, {}},
              [](std::span<const TypedValue>, HostContext&) -> Values {
                return {};
              });
  const char* wat = "(module (import \"env\" \"f\" (func (param i32))))";
  wasm::Module module = wasm::parse_wat(wat);
  wasm::validate(module);
  EXPECT_THROW(Instance(std::move(module), std::move(imports)), LinkError);
}

// ---------------------------------------------------------------------------
// Statistics (the accounting ground truth)
// ---------------------------------------------------------------------------

TEST(Stats, ExactInstructionCountStraightLine) {
  const char* wat = R"((module (func (export "f") (result i32)
    i32.const 1
    i32.const 2
    i32.add
  )))";
  Instance inst = make_instance(wat);
  inst.invoke("f");
  // 3 instructions; the implicit function return is synthetic.
  EXPECT_EQ(inst.stats().instructions, 3u);
  EXPECT_EQ(inst.stats().per_op[static_cast<size_t>(wasm::Op::I32Const)], 2u);
  EXPECT_EQ(inst.stats().per_op[static_cast<size_t>(wasm::Op::I32Add)], 1u);
}

TEST(Stats, ExactInstructionCountLoop) {
  // Per iteration: local.get, i32.const, i32.sub, local.tee, br_if = 5.
  // Loop entry: loop = 1. Total for n iterations: 1 + 5n + final local.get=1.
  const char* wat = R"((module (func (export "f") (param i32) (result i32)
    loop $l
      local.get 0
      i32.const 1
      i32.sub
      local.tee 0
      br_if $l
    end
    local.get 0
  )))";
  Instance inst = make_instance(wat);
  inst.invoke("f", {V::make_i32(10)});
  EXPECT_EQ(inst.stats().instructions, 1 + 5 * 10 + 1u);
}

TEST(Stats, IfCountsTakenArmOnly) {
  const char* wat = R"((module (func (export "f") (param i32) (result i32)
    local.get 0          ;; 1
    if (result i32)      ;; 2
      i32.const 1        ;; then: 1 instr
      i32.const 2
      i32.add
    else
      i32.const 9        ;; else: 1 instr
    end
  )))";
  {
    Instance inst = make_instance(wat);
    inst.invoke("f", {V::make_i32(1)});
    EXPECT_EQ(inst.stats().instructions, 2 + 3u);
  }
  {
    Instance inst = make_instance(wat);
    inst.invoke("f", {V::make_i32(0)});
    EXPECT_EQ(inst.stats().instructions, 2 + 1u);
  }
}

TEST(Stats, CyclesAreChargedPerOpcode) {
  const char* wat = R"((module (func (export "f") (result i32)
    i32.const 10
    i32.const 3
    i32.div_s
  )))";
  Instance inst = make_instance(wat);
  inst.invoke("f");
  uint64_t expected = wasm::op_info(wasm::Op::I32Const).base_cost * 2 +
                      wasm::op_info(wasm::Op::I32DivS).base_cost;
  EXPECT_EQ(inst.stats().cycles, expected);
}

TEST(Stats, MemoryOpCountsAndIntegral) {
  const char* wat = R"((module
    (memory 1 4)
    (func (export "f")
      i32.const 0
      i32.const 1
      i32.store
      i32.const 0
      i32.load
      drop
      i32.const 1
      memory.grow
      drop
    )
  ))";
  Instance inst = make_instance(wat);
  inst.invoke("f");
  EXPECT_EQ(inst.stats().mem_loads, 1u);
  EXPECT_EQ(inst.stats().mem_stores, 1u);
  EXPECT_EQ(inst.stats().peak_memory_bytes, 2 * wasm::kPageSize);
  // Integral: 7 instructions before grow at 64 KiB + 2 after at 128 KiB.
  EXPECT_GT(inst.stats().memory_integral, 0u);
}

TEST(Stats, TrappedRunFoldsMemoryIntegral) {
  // A trapped run's integral covers every instruction it ran, as a
  // returning run's does. The division traps mid-block, so the count is
  // the un-charged one: the trap's suffix must not be folded in.
  const char* wat = R"((module
    (memory 2)
    (func (export "f") (param i32) (result i32)
      (local $i i32)
      loop $l
        local.get $i
        i32.const 1
        i32.add
        local.tee $i
        i32.const 50
        i32.lt_s
        br_if $l
      end
      i32.const 7
      local.get 0
      i32.div_s
      i32.const 1
      i32.add
    )
  ))";
  Instance returning = make_instance(wat);
  returning.invoke("f", {V::make_i32(1)});
  EXPECT_EQ(returning.stats().memory_integral,
            returning.stats().instructions * 2 * wasm::kPageSize);

  Instance trapping = make_instance(wat);
  EXPECT_THROW(trapping.invoke("f", {V::make_i32(0)}), TrapError);
  const ExecStats& stats = trapping.stats();
  // The trap ran all but the two instructions after the division.
  EXPECT_EQ(stats.instructions, returning.stats().instructions - 2);
  EXPECT_EQ(stats.memory_integral, stats.instructions * 2 * wasm::kPageSize);
}

TEST(Stats, NativeVsWasmPlatformCosts) {
  // Same program, Wasm platform charges bounds checks; Native does not.
  const char* wat = R"((module
    (memory 1)
    (func (export "f") (result i32)
      i32.const 0
      i32.load
    )
  ))";
  auto cycles_for = [&](Platform p) {
    wasm::Module module = wasm::parse_wat(wat);
    wasm::validate(module);
    Instance::Options opts;
    opts.platform = p;
    opts.cache_model = false;
    Instance inst(std::move(module), {}, opts);
    inst.invoke("f");
    return inst.stats().cycles;
  };
  EXPECT_GT(cycles_for(Platform::Wasm), cycles_for(Platform::Native));
}

// ---------------------------------------------------------------------------
// Instance reset (the sharded gateway's reset-and-reuse freelists)
// ---------------------------------------------------------------------------

// Deliberately stateful: a mutable global call counter, an accumulator in
// linear memory, a data segment, and a grow path — everything reset() must
// restore.
const char* kStatefulWat = R"((module
  (memory 1 4)
  (data (i32.const 64) "seed")
  (global $calls (mut i32) (i32.const 0))
  (export "calls" (global $calls))
  (func (export "bump") (result i32)
    global.get $calls
    i32.const 1
    i32.add
    global.set $calls
    i32.const 0
    i32.const 0
    i32.load
    i32.const 10
    i32.add
    i32.store
    global.get $calls
    i32.const 1000
    i32.mul
    i32.const 0
    i32.load
    i32.add
  )
  (func (export "grow") (result i32)
    i32.const 1
    memory.grow
  )
))";

void expect_stats_identical(const ExecStats& a, const ExecStats& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.mem_loads, b.mem_loads);
  EXPECT_EQ(a.mem_stores, b.mem_stores);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
  EXPECT_EQ(a.epc_faults, b.epc_faults);
  EXPECT_EQ(a.host_calls, b.host_calls);
  EXPECT_EQ(a.peak_memory_bytes, b.peak_memory_bytes);
  EXPECT_EQ(a.memory_integral, b.memory_integral);
  EXPECT_EQ(a.io_bytes_in, b.io_bytes_in);
  EXPECT_EQ(a.io_bytes_out, b.io_bytes_out);
  EXPECT_EQ(a.per_op, b.per_op);
}

TEST(InstanceReset, StatePersistsWithoutReset) {
  // Sanity: without a reset the state bleed IS observable, so the reset
  // tests below are actually proving something.
  Instance inst = make_instance(kStatefulWat);
  EXPECT_EQ(inst.invoke("bump").at(0).i32(), 1010);
  EXPECT_EQ(inst.invoke("bump").at(0).i32(), 2020);
  EXPECT_EQ(inst.read_global("calls").i32(), 2);
}

TEST(InstanceReset, RestoresMemoryGlobalsAndDataSegments) {
  Instance inst = make_instance(kStatefulWat);
  inst.invoke("bump");
  inst.invoke("grow");  // dirty the page count too
  inst.memory()->write_bytes(64, to_bytes("XXXX"));  // clobber the segment

  inst.reset();

  // Globals, the memory accumulator, and the data segment are all back to
  // post-construction state; the grown page is gone.
  EXPECT_EQ(inst.read_global("calls").i32(), 0);
  EXPECT_EQ(inst.invoke("bump").at(0).i32(), 1010);
  BytesView segment = inst.memory()->view(64, 4);
  EXPECT_EQ(Bytes(segment.begin(), segment.end()), to_bytes("seed"));
  EXPECT_EQ(inst.invoke("grow").at(0).i32(), 1);  // back to 1 page pre-grow
}

TEST(InstanceReset, ExecStatsBitIdenticalToFresh) {
  // The freelist contract (DESIGN.md §16): a recycled instance accounts a
  // request exactly as a fresh instantiation would — including the cache
  // simulation, which must restart cold. Cache model ON to cover it.
  auto fresh = [&] {
    return make_instance(kStatefulWat, {}, Instance::Options{});
  };
  Instance baseline = fresh();
  baseline.invoke("bump");
  baseline.invoke("grow");

  Instance pooled = fresh();
  // Dirty it thoroughly, then reset.
  for (int i = 0; i < 3; ++i) pooled.invoke("bump");
  pooled.invoke("grow");
  pooled.reset();
  pooled.invoke("bump");
  pooled.invoke("grow");

  expect_stats_identical(pooled.stats(), baseline.stats());
}

// A module with every kind of write a request can make to its instance:
// stores, a host write (io_read), data segments, memory.grow, a global, and
// a start function that writes memory. The table is only read.
const char* kResetPropertyWat = R"((module
  (import "env" "io_read" (func $io_read (param i32 i32) (result i32)))
  (type $get (func (result i32)))
  (memory 3 12)
  (table 4 funcref)
  (elem (i32.const 1) $seven $nine)
  (global $g (mut i64) (i64.const 7))
  (export "g" (global $g))
  (data (i32.const 4090) "straddles a chunk")
  (data (i32.const 70000) "second page")
  (start $init)
  (func $init
    i32.const 131100
    i32.const 42
    i32.store)
  (func $seven (type $get) i32.const 7)
  (func $nine (type $get) i32.const 9)
  (func (export "store8") (param i32 i32)
    local.get 0
    local.get 1
    i32.store8)
  (func (export "store64") (param i32 i64)
    local.get 0
    local.get 1
    i64.store)
  (func (export "read") (param i32 i32) (result i32)
    local.get 0
    local.get 1
    call $io_read)
  (func (export "grow") (param i32) (result i32)
    local.get 0
    memory.grow)
  (func (export "bump") (param i64)
    global.get $g
    local.get 0
    i64.add
    global.set $g)
  (func (export "store_then_trap") (param i32 i64)
    local.get 0
    local.get 1
    i64.store
    global.get $g
    i64.const 1
    i64.add
    global.set $g
    i32.const -1
    i32.const 0
    i32.store)
  (func (export "call_slot") (param i32) (result i32)
    local.get 0
    call_indirect (type $get))
  (func (export "probe") (result i64)
    (local $a i32) (local $sum i64)
    loop $l
      local.get $sum
      local.get $a
      i64.load
      i64.add
      local.set $sum
      local.get $a
      i32.const 4093
      i32.add
      local.tee $a
      memory.size
      i32.const 65536
      i32.mul
      i32.const 8
      i32.sub
      i32.lt_u
      br_if $l
    end
    local.get $sum
    global.get $g
    i64.add
    i32.const 1
    call_indirect (type $get)
    i64.extend_i32_u
    i64.add)
))";

// `input` is what the test's io_read hands out: it copies it into linear
// memory through the checked host write path, as core's io_read does.
Instance make_reset_instance(const Bytes* input) {
  ImportMap imports;
  imports.add(
      "env", "io_read",
      wasm::FuncType{{wasm::ValType::I32, wasm::ValType::I32},
                     {wasm::ValType::I32}},
      [input](std::span<const TypedValue> args, HostContext& ctx) -> Values {
        size_t n = std::min<size_t>(args[1].u32(), input->size());
        ctx.memory->write_bytes(args[0].u32(), BytesView(input->data(), n));
        return {TypedValue::make_i32(static_cast<int32_t>(n))};
      });
  // Cache model on: a reset must also leave the simulated caches cold.
  return make_instance(kResetPropertyWat, std::move(imports),
                       Instance::Options{});
}

// One request of 1-12 random writes. The first store straddles a 4 KiB
// chunk boundary; addresses span every current page, grown ones included;
// some writes trap part-way through their request.
void random_request(Instance& inst, Bytes& input, Xoshiro256& rng) {
  auto invoke = [&](std::string_view name, const Values& args) {
    try {
      inst.invoke(name, args);
    } catch (const TrapError&) {
    }
  };
  const uint64_t chunks = inst.memory()->size_bytes() >> 12;
  invoke("store64",
         {V::make_i32(static_cast<int32_t>((1 + rng.next_below(chunks - 1)) *
                                               4096 -
                                           4)),
          V::make_i64(static_cast<int64_t>(rng.next() | 1))});
  const uint64_t ops = rng.next_below(12);
  for (uint64_t i = 0; i < ops; ++i) {
    const auto addr = V::make_i32(static_cast<int32_t>(
        rng.next_below(inst.memory()->size_bytes())));
    const auto value = V::make_i64(static_cast<int64_t>(rng.next() | 1));
    switch (rng.next_below(6)) {
      case 0:
        invoke("store8", {addr, V::make_i32(static_cast<int32_t>(
                                    1 + rng.next_below(255)))});
        break;
      case 1:
        invoke("store64", {addr, value});  // traps in the last 7 bytes
        break;
      case 2: {
        input = rng.next_bytes(1 + rng.next_below(9000));
        // Traps when the copy would run past the end.
        invoke("read",
               {addr, V::make_i32(static_cast<int32_t>(input.size()))});
        break;
      }
      case 3:
        invoke("grow", {V::make_i32(static_cast<int32_t>(rng.next_below(3)))});
        break;
      case 4:
        invoke("bump", {value});
        break;
      default:
        invoke("store_then_trap", {addr, value});
        break;
    }
  }
}

TEST(InstanceReset, MatchesFreshInstanceAfterRandomRequests) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Xoshiro256 rng(seed);
    Bytes pooled_input;
    Instance pooled = make_reset_instance(&pooled_input);
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      random_request(pooled, pooled_input, rng);
      pooled.reset();

      Bytes fresh_input;
      Instance fresh = make_reset_instance(&fresh_input);
      ASSERT_EQ(pooled.memory()->pages(), fresh.memory()->pages());
      BytesView got = pooled.memory()->view(0, pooled.memory()->size_bytes());
      BytesView want = fresh.memory()->view(0, fresh.memory()->size_bytes());
      EXPECT_EQ(std::ranges::mismatch(got, want).in1 - got.begin(),
                static_cast<std::ptrdiff_t>(got.size()))
          << "first differing byte";
      EXPECT_EQ(pooled.read_global("g").i64(), fresh.read_global("g").i64());

      // The next request accounts exactly as on a fresh instance.
      EXPECT_EQ(pooled.invoke("probe").at(0).i64(),
                fresh.invoke("probe").at(0).i64());
      expect_stats_identical(pooled.stats(), fresh.stats());
      for (int32_t slot = 0; slot < 4; ++slot) {
        auto call = [&](Instance& inst) -> int32_t {
          try {
            return inst.invoke("call_slot", {V::make_i32(slot)}).at(0).i32();
          } catch (const TrapError&) {
            return -1;
          }
        };
        EXPECT_EQ(call(pooled), call(fresh)) << "table slot " << slot;
      }

      // Pages grown after a reset read zero, although earlier requests
      // wrote to pages they had grown.
      const uint64_t old_size = pooled.memory()->size_bytes();
      ASSERT_EQ(pooled.invoke("grow", {V::make_i32(2)}).at(0).i32(),
                static_cast<int32_t>(old_size / wasm::kPageSize));
      BytesView grown =
          pooled.memory()->view(old_size, 2 * wasm::kPageSize);
      EXPECT_TRUE(std::ranges::all_of(grown, [](uint8_t b) { return b == 0; }));
    }
  }
}

struct AccessOp {
  const char* name;
  uint32_t width;
  bool store;
};

constexpr AccessOp kAccessOps[] = {
    {"i32.load", 4, false},     {"i64.load", 8, false},
    {"f32.load", 4, false},     {"f64.load", 8, false},
    {"i32.load8_s", 1, false},  {"i32.load8_u", 1, false},
    {"i32.load16_s", 2, false}, {"i32.load16_u", 2, false},
    {"i64.load8_s", 1, false},  {"i64.load8_u", 1, false},
    {"i64.load16_s", 2, false}, {"i64.load16_u", 2, false},
    {"i64.load32_s", 4, false}, {"i64.load32_u", 4, false},
    {"i32.store", 4, true},     {"i64.store", 8, true},
    {"f32.store", 4, true},     {"f64.store", 8, true},
    {"i32.store8", 1, true},    {"i32.store16", 2, true},
    {"i64.store8", 1, true},    {"i64.store16", 2, true},
    {"i64.store32", 4, true},
};

TEST(InstanceReset, EveryAccessWidthTrapsOneBytePastTheEnd) {
  // Linear memory sits on pages with no sanitizer redzone or guard page
  // behind it, so the bounds check is the only guard. It must hold for
  // every width, on a fresh, a grown and a reset (shrunk) memory.
  std::string wat =
      "(module (memory 1 4)\n"
      "  (func (export \"grow\") (param i32) (result i32)\n"
      "    local.get 0\n    memory.grow)\n";
  for (const AccessOp& op : kAccessOps) {
    std::string name = op.name;
    wat += "  (func (export \"" + name + "\") (param i32)\n    local.get 0\n";
    wat += op.store ? "    " + name.substr(0, 3) + ".const 1\n    " + name + ")\n"
                    : "    " + name + "\n    drop)\n";
  }
  wat += ")";
  Instance inst = make_instance(wat);
  auto expect_bounds = [&](const char* when) {
    const uint64_t size = inst.memory()->size_bytes();
    for (const AccessOp& op : kAccessOps) {
      const auto last = static_cast<int32_t>(size - op.width);
      EXPECT_NO_THROW(inst.invoke(op.name, {V::make_i32(last)}))
          << op.name << ", " << when;
      EXPECT_THROW(inst.invoke(op.name, {V::make_i32(last + 1)}), TrapError)
          << op.name << ", " << when;
    }
  };
  expect_bounds("fresh");
  inst.invoke("grow", {V::make_i32(2)});
  expect_bounds("grown");
  inst.reset();
  expect_bounds("reset");
}

}  // namespace
}  // namespace acctee::interp
