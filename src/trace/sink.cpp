#include "trace/sink.hpp"

#include <algorithm>

namespace dbsp::trace {

const char* phase_name(Phase p) {
    switch (p) {
        case Phase::kNone: return "(untraced)";
        case Phase::kStepExec: return "step-exec";
        case Phase::kContextMove: return "context-move";
        case Phase::kDeliver: return "deliver";
        case Phase::kDeliverSort: return "deliver-sort";
        case Phase::kDeliverTranspose: return "deliver-transpose";
        case Phase::kDummyStep: return "dummy-superstep";
        case Phase::kLocalRun: return "local-run";
        case Phase::kGlobalStep: return "global-step";
        case Phase::kCommunication: return "communication";
        case Phase::kSuperstep: return "superstep";
    }
    return "?";
}

void MultiSink::add(Sink* child) {
    if (child == nullptr) return;
    if (std::find(children_.begin(), children_.end(), child) != children_.end()) return;
    children_.push_back(child);
}

void MultiSink::access(Addr x, double cost) {
    for (Sink* c : children_) c->access(x, cost);
}
void MultiSink::access_range(std::span<const double> prefix, Addr begin, Addr end) {
    for (Sink* c : children_) c->access_range(prefix, begin, end);
}
void MultiSink::access_log(std::span<const double> prefix, Addr base,
                           std::span<const std::uint32_t> touches) {
    for (Sink* c : children_) c->access_log(prefix, base, touches);
}
void MultiSink::charge(double cost) {
    for (Sink* c : children_) c->charge(cost);
}
void MultiSink::block_op(std::span<const double> prefix, double delta, unsigned touches,
                         std::initializer_list<AddrRange> ranges) {
    for (Sink* c : children_) c->block_op(prefix, delta, touches, ranges);
}
void MultiSink::block_transfer(Addr src, Addr dst, std::uint64_t len, double latency,
                               double delta) {
    for (Sink* c : children_) c->block_transfer(src, dst, len, latency, delta);
}
void MultiSink::messages(std::uint64_t count) {
    for (Sink* c : children_) c->messages(count);
}
void MultiSink::superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                          double cost) {
    for (Sink* c : children_) c->superstep(label, tau, h, comm_arg, cost);
}
void MultiSink::phase_begin(Phase phase, unsigned label) {
    for (Sink* c : children_) c->phase_begin(phase, label);
}
void MultiSink::phase_end(Phase phase) {
    for (Sink* c : children_) c->phase_end(phase);
}

}  // namespace dbsp::trace
