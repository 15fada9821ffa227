#pragma once

// The hash every golden suite records: 64-bit FNV-1a over the object
// bytes of the values fed to it, in order. SwmGolden (swm_model_test),
// DesGolden (mpisim_topology_test) and the transport conformance matrix
// (mpisim_transport_test) all hash through this one helper, so a
// recorded value means the same byte stream in each of them.

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace tfx::test {

struct fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n; ++k) {
      h ^= b[k];
      h *= 1099511628211ull;
    }
  }

  /// One value by its object representation.
  template <typename V>
  void value(const V& v) {
    static_assert(std::is_trivially_copyable_v<V>);
    bytes(&v, sizeof v);
  }

  /// Every element of a range, in iteration order.
  template <typename Range>
  void values(const Range& r) {
    for (const auto& x : r) value(x);
  }
};

}  // namespace tfx::test
