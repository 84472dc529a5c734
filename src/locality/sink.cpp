#include "locality/sink.hpp"

namespace dbsp::locality {

template class AddressStream<LocalitySink>;

}  // namespace dbsp::locality
