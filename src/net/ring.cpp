#include "net/ring.hpp"

namespace mflow::net {

RxRing::RxRing(std::size_t capacity) : slots_(capacity) {}

}  // namespace mflow::net
