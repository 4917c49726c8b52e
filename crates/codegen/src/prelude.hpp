// Build: c++ -std=c++17 -O2 -msse4.2 -ffp-contract=off -fwrapv unit.cpp -o unit
// Run: ./unit <steady iterations>  (each sink token goes to stdout as 8 bytes)
//
// Generated by the MacroSS reproduction code generator. Everything above
// the first actor is this fixed prelude; the emitter pastes it verbatim.
// -fwrapv gives signed overflow the VM's wrapping meaning (the suite's
// LCG sources overflow `int`), and -ffp-contract=off keeps each float
// operation rounded on its own, as the VM rounds it.
#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <vector>
#include <smmintrin.h> // SSE4

// Four 64-bit lanes span two SSE registers.
struct m128d_pair { __m128d lo, hi; };
struct m128i_pair { __m128i lo, hi; };

// Thin wrappers so the generated code reads uniformly.
static inline __m128 v_add_ps(__m128 a, __m128 b) { return _mm_add_ps(a, b); }
static inline __m128 v_sub_ps(__m128 a, __m128 b) { return _mm_sub_ps(a, b); }
static inline __m128 v_mul_ps(__m128 a, __m128 b) { return _mm_mul_ps(a, b); }
static inline __m128 v_div_ps(__m128 a, __m128 b) { return _mm_div_ps(a, b); }
static inline __m128 v_splat_ps(float x) { return _mm_set1_ps(x); }
static inline __m128 v_extract_even_ps(__m128 a, __m128 b) { return _mm_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0)); }
static inline __m128 v_extract_odd_ps(__m128 a, __m128 b) { return _mm_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1)); }
static inline __m128i v_add_epi32(__m128i a, __m128i b) { return _mm_add_epi32(a, b); }
static inline __m128i v_sub_epi32(__m128i a, __m128i b) { return _mm_sub_epi32(a, b); }
static inline __m128i v_mul_epi32(__m128i a, __m128i b) { return _mm_mullo_epi32(a, b); }
static inline __m128i v_splat_epi32(int32_t x) { return _mm_set1_epi32(x); }

// Scalar intrinsics, in the VM's domains: sin, cos, atan, sqrt, exp, log
// and floor are evaluated in double and rounded once to the operand's
// type; pow, min, max and abs stay in that type. Integer abs wraps.
template <typename T> T s_sin(T x) { return (T)std::sin((double)x); }
template <typename T> T s_cos(T x) { return (T)std::cos((double)x); }
template <typename T> T s_atan(T x) { return (T)std::atan((double)x); }
template <typename T> T s_sqrt(T x) { return (T)std::sqrt((double)x); }
template <typename T> T s_exp(T x) { return (T)std::exp((double)x); }
template <typename T> T s_log(T x) { return (T)std::log((double)x); }
template <typename T> T s_floor(T x) { return (T)std::floor((double)x); }
static inline float s_pow(float a, float b) { return std::pow(a, b); }
static inline double s_pow(double a, double b) { return std::pow(a, b); }
static inline float s_abs(float x) { return std::fabs(x); }
static inline double s_abs(double x) { return std::fabs(x); }
static inline int32_t s_abs(int32_t x) { return x < 0 ? -x : x; }
static inline int64_t s_abs(int64_t x) { return x < 0 ? -x : x; }
static inline float s_min(float a, float b) { return std::fmin(a, b); }
static inline double s_min(double a, double b) { return std::fmin(a, b); }
static inline int32_t s_min(int32_t a, int32_t b) { return std::min(a, b); }
static inline int64_t s_min(int64_t a, int64_t b) { return std::min(a, b); }
static inline float s_max(float a, float b) { return std::fmax(a, b); }
static inline double s_max(double a, double b) { return std::fmax(a, b); }
static inline int32_t s_max(int32_t a, int32_t b) { return std::max(a, b); }
static inline int64_t s_max(int64_t a, int64_t b) { return std::max(a, b); }

// Integer division and shifts, as the VM's bytecode::bin_i defines
// them where C++ leaves them undefined: x / 0 and x % 0 are 0, INT_MIN /
// -1 wraps (and its remainder is 0), and a shift count is taken modulo
// the operand's width. Float division stays IEEE; a float remainder is
// fmod, as Rust's `%` is.
template <typename A, typename B> auto s_div(A a, B b) {
  using T = decltype(a / b);
  if constexpr (std::is_integral_v<T>) {
    if (b == 0) return T(0);
    if (b == -1) return T(0u - std::make_unsigned_t<T>(a));
  }
  return T(a / b);
}
template <typename A, typename B> auto s_rem(A a, B b) {
  using T = decltype(a + b);
  if constexpr (std::is_integral_v<T>) {
    if (b == 0 || b == -1) return T(0);
    return T(a % b);
  } else {
    return T(std::fmod(a, b));
  }
}
template <typename A, typename B> auto s_shl(A a, B b) {
  using T = decltype(a << b);
  using U = std::make_unsigned_t<T>;
  return T(U(a) << (b & (sizeof(T) * 8 - 1)));
}
template <typename A, typename B> auto s_shr(A a, B b) {
  using T = decltype(a >> b);
  return T(a >> (b & (sizeof(T) * 8 - 1)));
}

// FIFO tape with random-access pushes and pointer adjustment, as
// required by macro-SIMDized actors (rpush/advance of Fig. 3b). `rd` and
// `wr` count tokens since the start; slot `i % buf.size()` holds token
// `i`. A program's tapes are sized to their static bound, and a push
// past it is a failed assertion, not a silent overwrite.
template <typename T> struct Tape {
  std::vector<T> buf;
  size_t rd = 0, wr = 0;
  Tape() = default;
  explicit Tape(size_t cap) : buf(cap) {}
  T pop() { return buf[rd++ % buf.size()]; }
  T peek(size_t k) const { return buf[(rd + k) % buf.size()]; }
  void push(T v) { rpush(v, 0); ++wr; }
  void rpush(T v, size_t off) {
    assert(wr + off - rd < buf.size() && "tape overrun: its static bound is too small");
    buf[(wr + off) % buf.size()] = v;
  }
  void advance_read(size_t n) { rd += n; }
  void advance_write(size_t n) { wr += n; }
};

// The tape of a port with no edge (a source's input): never touched.
struct NilTape {};
inline NilTape nil_tape;

// Splitters and joiners, one firing each. A round-robin node's weights
// are its template arguments, in port order.
template <typename T, typename... Outs> void split_dup(Tape<T>& in, Outs&... outs) {
  T v = in.pop();
  (outs.push(v), ...);
}
template <typename T> void move_tokens(Tape<T>& from, Tape<T>& to, size_t n) {
  for (size_t k = 0; k < n; ++k) to.push(from.pop());
}
template <size_t... W, typename T, typename... Outs> void split_rr(Tape<T>& in, Outs&... outs) {
  (move_tokens(in, outs, W), ...);
}
template <size_t... W, typename T, typename... Ins> void join_rr(Tape<T>& out, Ins&... ins) {
  (move_tokens(ins, out, W), ...);
}

// A sink writes each token's 8-byte register image to stdout, as the
// VM's tape::raw_of defines it: an int32_t sign-extended, a float
// widened to double.
static inline void write_image(int64_t x) { std::fwrite(&x, sizeof x, 1, stdout); }
static inline void write_image(double x) { std::fwrite(&x, sizeof x, 1, stdout); }
static inline void write_image(int32_t x) { write_image((int64_t)x); }
static inline void write_image(float x) { write_image((double)x); }
template <typename T> void sink_consume(Tape<T>& in) { write_image(in.pop()); }

