//===- swp/support/ThreadSpare.h - Per-thread recycled stores ---*- C++ -*-===//
//
// Part of the swp project (PLDI '95 software pipelining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A one-slot, per-thread spare for an object's heap storage (DESIGN.md
/// Section 12).  The exact engines solve one small model per loop and
/// candidate T, so the capacity one lifetime grew is what the next one
/// needs: a destroyed owner parks its store, reset, in its thread's slot
/// and the next owner on that thread takes it instead of allocating.
///
/// A Store is default-constructible and provides
///   void reset();                      // back to the constructed state,
///                                      // every vector's capacity kept
///   std::size_t capacityBytes() const; // heap bytes held, used or not
///
/// Owners hold a store through Recycled (a handle) or SpareBacked (a base
/// whose members the owner names directly).  A store holding more than
/// MaxParkedBytes is freed, not parked, so one huge model cannot pin its
/// memory to a thread.  Thread exit frees the parked store and closes the
/// slot; an owner destroyed later on the thread (a thread_local of its
/// own) frees its store.
///
//===----------------------------------------------------------------------===//

#ifndef SWP_SUPPORT_THREADSPARE_H
#define SWP_SUPPORT_THREADSPARE_H

#include <cstddef>
#include <utility>
#include <vector>

namespace swp {

/// Heap bytes \p V holds, in use or not.
template <typename T> std::size_t heapBytes(const std::vector<T> &V) {
  return V.capacity() * sizeof(T);
}

/// The one-slot spare of Store objects on each thread.
template <typename Store> class ThreadSpare {
public:
  /// A store above this many bytes is freed, not parked.
  static constexpr std::size_t MaxParkedBytes = std::size_t(1) << 20;

  /// The thread's parked store if there is one, else a new one.
  static Store *acquire() {
    Slot &S = slot();
    if (Store *Spare = S.Parked) {
      S.Parked = nullptr;
      return Spare;
    }
    return new Store;
  }

  /// Parks \p S, reset, in the thread's empty slot; frees it when the slot
  /// is full or closed or the store exceeds MaxParkedBytes.
  static void release(Store *S) {
    Slot &Sl = slot();
    if (Sl.Parked || Sl.Closed || S->capacityBytes() > MaxParkedBytes) {
      delete S;
      return;
    }
    thread_local Reaper R; // Constructed by the thread's first park.
    S->reset();
    Sl.Parked = S;
  }

private:
  /// Trivially destructible, so an owner destroyed while its thread exits
  /// can still read it.
  struct Slot {
    Store *Parked = nullptr;
    /// Set once the thread's exit has freed the parked store.
    bool Closed = false;
  };
  static Slot &slot() {
    thread_local constinit Slot S;
    return S;
  }

  /// Frees the parked store at thread exit and closes the slot.
  struct Reaper {
    ~Reaper() {
      Slot &S = slot();
      delete S.Parked;
      S.Parked = nullptr;
      S.Closed = true;
    }
  };
};

/// Owns one Store taken from its thread's spare and parks it again on
/// destruction.  A copy takes a store of its own and copies the contents;
/// a moved-from handle owns nothing and may only be destroyed or assigned.
template <typename Store> class Recycled {
public:
  Recycled() : P(ThreadSpare<Store>::acquire()) {}
  ~Recycled() {
    if (P)
      ThreadSpare<Store>::release(P);
  }
  Recycled(const Recycled &O) : Recycled() { *P = *O.P; }
  Recycled &operator=(const Recycled &O) {
    if (!P)
      P = ThreadSpare<Store>::acquire();
    *P = *O.P;
    return *this;
  }
  Recycled(Recycled &&O) noexcept : P(std::exchange(O.P, nullptr)) {}
  Recycled &operator=(Recycled &&O) noexcept {
    std::swap(P, O.P);
    return *this;
  }

  Store &operator*() const { return *P; }
  Store *operator->() const { return P; }

private:
  Store *P;
};

/// Base of a class that names a Store's members directly: construction
/// moves the contents of a store taken from the thread's spare into the
/// base, and destruction moves them back and parks that store.  Not
/// copyable.
template <typename Store> class SpareBacked : protected Store {
protected:
  SpareBacked() : Holder(ThreadSpare<Store>::acquire()) {
    static_cast<Store &>(*this) = std::move(*Holder);
  }
  ~SpareBacked() {
    *Holder = std::move(static_cast<Store &>(*this));
    ThreadSpare<Store>::release(Holder);
  }
  SpareBacked(const SpareBacked &) = delete;
  SpareBacked &operator=(const SpareBacked &) = delete;

private:
  /// The heap store the contents came from and go back to.
  Store *Holder;
};

} // namespace swp

#endif // SWP_SUPPORT_THREADSPARE_H
