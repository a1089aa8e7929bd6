#include "control/classifier.hpp"

namespace mflow::control {

FlowClass Classifier::update(net::FlowId flow, double rate_pps,
                             sim::Time now) {
  FlowClass out = FlowClass::kMouse;
  // Every observation refreshes the flow's recency: the callback returns
  // true, so the lookup, the hysteresis step and the touch are one probe.
  states_.upsert_apply(flow, now, [&](State& st) {
    // What does the instantaneous rate argue for, given the hysteresis
    // band? Inside the band (demote_pps < rate < promote_pps) it argues for
    // the committed state — any pending candidate is cancelled.
    FlowClass wanted = st.committed;
    if (rate_pps >= params_.promote_pps) {
      wanted = FlowClass::kElephant;
    } else if (rate_pps <= params_.demote_pps) {
      wanted = FlowClass::kMouse;
    }

    if (wanted == st.committed) {
      st.candidate = st.committed;
    } else {
      if (st.candidate != wanted) {
        st.candidate = wanted;
        st.candidate_since = now;
      }
      if (now - st.candidate_since >= params_.dwell) {
        st.committed = wanted;
        ++transitions_;
      }
    }
    out = st.committed;
    return true;
  });
  return out;
}

FlowClass Classifier::classify(net::FlowId flow) const {
  const State* st = states_.find(flow);
  return st == nullptr ? FlowClass::kMouse : st->committed;
}

void Classifier::clear() {
  states_.clear();
  transitions_ = 0;
}

}  // namespace mflow::control
