#include "sdds/lh_options.h"

#include <bit>
#include <utility>

namespace essdds::sdds {

uint64_t LhKeyHash(uint64_t key) {
  // splitmix64 finalizer.
  uint64_t z = key + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t ParentBucket(uint64_t bucket) {
  ESSDDS_CHECK(bucket != 0) << "bucket 0 has no parent";
  return bucket & ~std::bit_floor(bucket);
}

namespace {

class PredicateFilter : public ScanFilter {
 public:
  explicit PredicateFilter(
      std::function<bool(uint64_t, ByteSpan, ByteSpan)> predicate)
      : predicate_(std::move(predicate)) {}

  std::unique_ptr<Prepared> Prepare(ByteSpan arg) const override {
    return std::make_unique<PreparedPredicate>(
        &predicate_, Bytes(arg.begin(), arg.end()));
  }

 private:
  class PreparedPredicate : public Prepared {
   public:
    PreparedPredicate(const std::function<bool(uint64_t, ByteSpan, ByteSpan)>*
                          predicate,
                      Bytes arg)
        : predicate_(predicate), arg_(std::move(arg)) {}

    bool Matches(uint64_t key, ByteSpan value) const override {
      return (*predicate_)(key, value, arg_);
    }

   private:
    const std::function<bool(uint64_t, ByteSpan, ByteSpan)>* predicate_;
    Bytes arg_;  // owned: the scan message may not outlive the evaluation
  };

  std::function<bool(uint64_t, ByteSpan, ByteSpan)> predicate_;
};

}  // namespace

std::unique_ptr<ScanFilter> MakeScanFilter(
    std::function<bool(uint64_t, ByteSpan, ByteSpan)> predicate) {
  return std::make_unique<PredicateFilter>(std::move(predicate));
}

}  // namespace essdds::sdds
