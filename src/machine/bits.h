// Width/bit-pattern helpers shared by the legacy switch interpreter
// (machine.cc) and the predecoded handlers (decode.cc). Both dispatch paths
// must produce bit-identical results, so they use one set of primitives.
#ifndef SRC_MACHINE_BITS_H_
#define SRC_MACHINE_BITS_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace nsf {

inline uint64_t TruncToWidth(uint64_t v, uint8_t width) {
  switch (width) {
    case 1:
      return v & 0xff;
    case 2:
      return v & 0xffff;
    case 4:
      return v & 0xffffffffull;
    default:
      return v;
  }
}

inline int64_t SignExtend(uint64_t v, uint8_t width) {
  switch (width) {
    case 1:
      return static_cast<int8_t>(v);
    case 2:
      return static_cast<int16_t>(v);
    case 4:
      return static_cast<int32_t>(v);
    default:
      return static_cast<int64_t>(v);
  }
}

// Simulated memory moves of 1/2/4/8 bytes. Each arm is a constant-size
// memcpy, so it compiles to a single load or store; a memcpy whose size is
// only known at run time lowers to a library call or `rep movs` instead.
// Loads zero-extend; stores write exactly `width` bytes. Any other width is
// treated as 8 (the verifiers reject such records before they run).
inline uint64_t LoadWidth(const uint8_t* p, uint8_t width) {
  switch (width) {
    case 1:
      return *p;
    case 2: {
      uint16_t v;
      std::memcpy(&v, p, 2);
      return v;
    }
    case 4: {
      uint32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    default: {
      uint64_t v;
      std::memcpy(&v, p, 8);
      return v;
    }
  }
}

inline void StoreWidth(uint8_t* p, uint64_t v, uint8_t width) {
  switch (width) {
    case 1:
      *p = static_cast<uint8_t>(v);
      return;
    case 2: {
      uint16_t t = static_cast<uint16_t>(v);
      std::memcpy(p, &t, 2);
      return;
    }
    case 4: {
      uint32_t t = static_cast<uint32_t>(v);
      std::memcpy(p, &t, 4);
      return;
    }
    default:
      std::memcpy(p, &v, 8);
      return;
  }
}

inline float BitsToF32(uint64_t bits) {
  float f;
  uint32_t b32 = static_cast<uint32_t>(bits);
  std::memcpy(&f, &b32, 4);
  return f;
}

inline uint64_t F32ToBits(float f) {
  uint32_t b32;
  std::memcpy(&b32, &f, 4);
  return b32;
}

inline double BitsToF64(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, 8);
  return d;
}

inline uint64_t F64ToBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

// Wasm min/max semantics (NaN-propagating, -0 < +0).
inline double CanonMin(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (a == b) {
    return std::signbit(a) ? a : b;
  }
  return a < b ? a : b;
}

inline double CanonMax(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (a == b) {
    return std::signbit(a) ? b : a;
  }
  return a > b ? a : b;
}

// roundsd/roundss immediate: 0 nearest, 1 floor, 2 ceil, 3 trunc.
inline double ApplyRounding(double v, int mode) {
  switch (mode) {
    case 0:
      return std::nearbyint(v);
    case 1:
      return std::floor(v);
    case 2:
      return std::ceil(v);
    default:
      return std::trunc(v);
  }
}

}  // namespace nsf

#endif  // SRC_MACHINE_BITS_H_
