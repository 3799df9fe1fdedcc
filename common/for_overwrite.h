#ifndef SARGUS_COMMON_FOR_OVERWRITE_H_
#define SARGUS_COMMON_FOR_OVERWRITE_H_

/// \file for_overwrite.h
/// \brief ForOverwrite: a vector allocator whose resize() leaves new
/// elements unwritten, for arrays a parallel pass fills right after.

#include <memory>
#include <utility>

namespace sargus {

/// Default-initialises where std::allocator value-initialises, so
/// resize() on a trivially default-constructible T writes nothing.
template <typename T>
struct ForOverwrite : std::allocator<T> {
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace sargus

#endif  // SARGUS_COMMON_FOR_OVERWRITE_H_
