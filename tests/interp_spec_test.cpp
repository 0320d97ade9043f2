// Table-driven specification tests for the numeric semantics of the
// interpreter: each case is one (operator, operands, expected result)
// checked through a freshly built module. Complements interp_test.cpp with
// systematic edge-value coverage (INT_MIN, wrap-around, NaN propagation,
// unsigned comparisons, conversion boundaries).
#include <gtest/gtest.h>

#include <cmath>

#include "test_util.hpp"

namespace acctee::interp {
namespace {

using wasm::Instr;
using wasm::Op;
using wasm::ValType;

// ---------------------------------------------------------------------------
// i32 binary operations
// ---------------------------------------------------------------------------

struct I32BinCase {
  const char* name;
  Op op;
  int32_t lhs;
  int32_t rhs;
  int32_t expected;
};

// gtest prints a parameter with no printer as its raw bytes, and those
// bytes hold the address of `name`, which moves with every run; the
// listed test names must not. Print the case's operator instead.
void PrintTo(const I32BinCase& c, std::ostream* os) {
  *os << wasm::op_info(c.op).name;
}

class I32BinSpec : public ::testing::TestWithParam<I32BinCase> {};

TEST_P(I32BinSpec, Evaluates) {
  const I32BinCase& c = GetParam();
  wasm::Module m;
  m.types.push_back(wasm::FuncType{{}, {ValType::I32}});
  wasm::Function f;
  f.type_index = 0;
  f.body = {Instr::i32c(c.lhs), Instr::i32c(c.rhs), Instr::simple(c.op)};
  m.functions.push_back(std::move(f));
  m.exports.push_back({"f", wasm::ExternKind::Func, 0});
  wasm::validate(m);
  Instance::Options opts;
  opts.cache_model = false;
  Instance inst(std::move(m), {}, opts);
  EXPECT_EQ(inst.invoke("f")[0].i32(), c.expected) << c.name;
}

constexpr int32_t kMin = INT32_MIN;
constexpr int32_t kMax = INT32_MAX;

const I32BinCase kI32BinCases[] = {
    {"add_wraps", Op::I32Add, kMax, 1, kMin},
    {"sub_wraps", Op::I32Sub, kMin, 1, kMax},
    {"mul_wraps", Op::I32Mul, 0x10000, 0x10000, 0},
    {"mul_signs", Op::I32Mul, -3, -4, 12},
    {"div_s_trunc_neg", Op::I32DivS, -7, 2, -3},
    {"div_s_trunc_pos", Op::I32DivS, 7, -2, -3},
    {"div_u_large", Op::I32DivU, -1, 2, kMax},
    {"rem_s_sign_follows_dividend", Op::I32RemS, -7, 3, -1},
    {"rem_s_pos", Op::I32RemS, 7, -3, 1},
    {"rem_u", Op::I32RemU, -1, 10, 5},  // 4294967295 % 10
    {"and", Op::I32And, 0x0ff0, 0x00ff, 0x00f0},
    {"or", Op::I32Or, 0x0ff0, 0x00ff, 0x0fff},
    {"xor", Op::I32Xor, -1, 0x0f0f, ~0x0f0f},
    {"shl_by_31", Op::I32Shl, 1, 31, kMin},
    {"shl_mask_32", Op::I32Shl, 1, 32, 1},
    {"shl_mask_33", Op::I32Shl, 1, 33, 2},
    {"shr_s_keeps_sign", Op::I32ShrS, kMin, 31, -1},
    {"shr_u_clears_sign", Op::I32ShrU, kMin, 31, 1},
    {"rotl_wraps_bit", Op::I32Rotl, kMin, 1, 1},
    {"rotr_wraps_bit", Op::I32Rotr, 1, 1, kMin},
    {"eq_true", Op::I32Eq, 5, 5, 1},
    {"eq_false", Op::I32Eq, 5, 6, 0},
    {"ne", Op::I32Ne, 5, 6, 1},
    {"lt_s_signed", Op::I32LtS, -1, 0, 1},
    {"lt_u_unsigned", Op::I32LtU, -1, 0, 0},
    {"gt_s", Op::I32GtS, 0, -1, 1},
    {"gt_u", Op::I32GtU, 0, -1, 0},
    {"le_s_equal", Op::I32LeS, 3, 3, 1},
    {"ge_u_minus_one_is_max", Op::I32GeU, -1, kMax, 1},
};

INSTANTIATE_TEST_SUITE_P(Cases, I32BinSpec, ::testing::ValuesIn(kI32BinCases),
                         [](const ::testing::TestParamInfo<I32BinCase>& info) {
                           return info.param.name;
                         });

// ---------------------------------------------------------------------------
// i64 binary operations
// ---------------------------------------------------------------------------

struct I64BinCase {
  const char* name;
  Op op;
  int64_t lhs;
  int64_t rhs;
  int64_t expected;  // comparisons put the 0/1 result here
  bool result_is_i32;
};

void PrintTo(const I64BinCase& c, std::ostream* os) {
  *os << wasm::op_info(c.op).name;
}

class I64BinSpec : public ::testing::TestWithParam<I64BinCase> {};

TEST_P(I64BinSpec, Evaluates) {
  const I64BinCase& c = GetParam();
  wasm::Module m;
  m.types.push_back(wasm::FuncType{
      {}, {c.result_is_i32 ? ValType::I32 : ValType::I64}});
  wasm::Function f;
  f.type_index = 0;
  f.body = {Instr::i64c(c.lhs), Instr::i64c(c.rhs), Instr::simple(c.op)};
  m.functions.push_back(std::move(f));
  m.exports.push_back({"f", wasm::ExternKind::Func, 0});
  wasm::validate(m);
  Instance::Options opts;
  opts.cache_model = false;
  Instance inst(std::move(m), {}, opts);
  auto result = inst.invoke("f")[0];
  if (c.result_is_i32) {
    EXPECT_EQ(result.i32(), static_cast<int32_t>(c.expected)) << c.name;
  } else {
    EXPECT_EQ(result.i64(), c.expected) << c.name;
  }
}

const I64BinCase kI64BinCases[] = {
    {"add_wraps", Op::I64Add, INT64_MAX, 1, INT64_MIN, false},
    {"mul_large", Op::I64Mul, 1LL << 32, 1LL << 32, 0, false},
    {"div_s", Op::I64DivS, -9, 2, -4, false},
    {"div_u_minus_one", Op::I64DivU, -1, 2, INT64_MAX, false},
    {"rem_s_min_minus_one", Op::I64RemS, INT64_MIN, -1, 0, false},
    {"shl_mask_64", Op::I64Shl, 1, 64, 1, false},
    {"shr_s", Op::I64ShrS, INT64_MIN, 63, -1, false},
    {"rotl", Op::I64Rotl, INT64_MIN, 1, 1, false},
    {"lt_s", Op::I64LtS, -1, 0, 1, true},
    {"lt_u", Op::I64LtU, -1, 0, 0, true},
    {"ge_s", Op::I64GeS, 0, INT64_MIN, 1, true},
};

INSTANTIATE_TEST_SUITE_P(Cases, I64BinSpec, ::testing::ValuesIn(kI64BinCases),
                         [](const ::testing::TestParamInfo<I64BinCase>& info) {
                           return info.param.name;
                         });

// ---------------------------------------------------------------------------
// f64 binary operations (bit-exact expectations)
// ---------------------------------------------------------------------------

struct F64BinCase {
  const char* name;
  Op op;
  double lhs;
  double rhs;
  double expected;
};

void PrintTo(const F64BinCase& c, std::ostream* os) {
  *os << wasm::op_info(c.op).name;
}

class F64BinSpec : public ::testing::TestWithParam<F64BinCase> {};

TEST_P(F64BinSpec, Evaluates) {
  const F64BinCase& c = GetParam();
  wasm::Module m;
  m.types.push_back(wasm::FuncType{{}, {ValType::F64}});
  wasm::Function f;
  f.type_index = 0;
  f.body = {Instr::f64c(c.lhs), Instr::f64c(c.rhs), Instr::simple(c.op)};
  m.functions.push_back(std::move(f));
  m.exports.push_back({"f", wasm::ExternKind::Func, 0});
  wasm::validate(m);
  Instance::Options opts;
  opts.cache_model = false;
  Instance inst(std::move(m), {}, opts);
  double result = inst.invoke("f")[0].f64();
  if (std::isnan(c.expected)) {
    EXPECT_TRUE(std::isnan(result)) << c.name;
  } else {
    EXPECT_EQ(std::bit_cast<uint64_t>(result),
              std::bit_cast<uint64_t>(c.expected))
        << c.name << " got " << result;
  }
}

const double kInf = HUGE_VAL;
const double kNan = NAN;

const F64BinCase kF64BinCases[] = {
    {"add", Op::F64Add, 0.1, 0.2, 0.1 + 0.2},
    {"add_inf", Op::F64Add, kInf, 1.0, kInf},
    {"add_opposite_inf_nan", Op::F64Add, kInf, -kInf, kNan},
    {"sub_signed_zero", Op::F64Sub, 0.0, 0.0, 0.0},
    {"mul_inf_zero_nan", Op::F64Mul, kInf, 0.0, kNan},
    {"div_by_zero_inf", Op::F64Div, 1.0, 0.0, kInf},
    {"div_neg_zero", Op::F64Div, -1.0, kInf, -0.0},
    {"zero_div_zero_nan", Op::F64Div, 0.0, 0.0, kNan},
    {"min_nan_propagates", Op::F64Min, kNan, 1.0, kNan},
    {"min_negative_zero", Op::F64Min, -0.0, 0.0, -0.0},
    {"max_positive_zero", Op::F64Max, -0.0, 0.0, 0.0},
    {"max_inf", Op::F64Max, kInf, 5.0, kInf},
    {"copysign_neg", Op::F64Copysign, 2.0, -7.0, -2.0},
    {"copysign_from_neg_zero", Op::F64Copysign, 2.0, -0.0, -2.0},
};

INSTANTIATE_TEST_SUITE_P(Cases, F64BinSpec, ::testing::ValuesIn(kF64BinCases),
                         [](const ::testing::TestParamInfo<F64BinCase>& info) {
                           return info.param.name;
                         });

// ---------------------------------------------------------------------------
// Conversion boundaries
// ---------------------------------------------------------------------------

TEST(ConversionSpec, TruncBoundaries) {
  using testutil::make_instance;
  // Largest doubles that convert without trapping.
  EXPECT_EQ(testutil::run_i32(R"((module (func (export "f") (result i32)
    f64.const 2147483647.9
    i32.trunc_f64_s)))", "f"), INT32_MAX);
  EXPECT_EQ(testutil::run_i32(R"((module (func (export "f") (result i32)
    f64.const -2147483648.9
    i32.trunc_f64_s)))", "f"), INT32_MIN);
  EXPECT_EQ(testutil::run_i64(R"((module (func (export "f") (result i64)
    f64.const 9007199254740992
    i64.trunc_f64_s)))", "f"), 9007199254740992LL);
  // One past either edge traps.
  Instance over = make_instance(R"((module (func (export "f") (result i32)
    f64.const 2147483648.0
    i32.trunc_f64_s)))");
  EXPECT_THROW(over.invoke("f"), TrapError);
  Instance under = make_instance(R"((module (func (export "f") (result i32)
    f64.const -2147483649.0
    i32.trunc_f64_s)))");
  EXPECT_THROW(under.invoke("f"), TrapError);
}

TEST(ConversionSpec, UnsignedConvertRoundTrip) {
  // u32 max through f64 and back.
  EXPECT_EQ(testutil::run_f64(R"((module (func (export "f") (result f64)
    i32.const -1
    f64.convert_i32_u)))", "f"), 4294967295.0);
  EXPECT_EQ(testutil::run_i32(R"((module (func (export "f") (result i32)
    f64.const 4294967295.0
    i32.trunc_f64_u)))", "f"), -1);
}

TEST(ConversionSpec, DemotePreservesValueApproximately) {
  float demoted = testutil::run_f32(R"((module (func (export "f") (result f32)
    f64.const 3.141592653589793
    f32.demote_f64)))", "f");
  EXPECT_FLOAT_EQ(demoted, 3.14159274f);
}

TEST(ConversionSpec, ReinterpretRoundTrips) {
  EXPECT_EQ(testutil::run_i64(R"((module (func (export "f") (result i64)
    f64.const -0.0
    i64.reinterpret_f64)))", "f"),
            static_cast<int64_t>(0x8000000000000000ULL));
  EXPECT_EQ(testutil::run_f64(R"((module (func (export "f") (result f64)
    i64.const 0x3ff0000000000000
    f64.reinterpret_i64)))", "f"), 1.0);
}

}  // namespace
}  // namespace acctee::interp
