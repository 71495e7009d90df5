#include "cs/committee.h"

namespace drcell::cs {

InferenceCommittee::InferenceCommittee(std::vector<InferenceEnginePtr> members)
    : members_(std::move(members)) {
  DRCELL_CHECK_MSG(members_.size() >= 2,
                   "a committee needs at least two members");
  for (const auto& m : members_) DRCELL_CHECK(m != nullptr);
}

std::vector<Matrix> InferenceCommittee::infer_all(
    const PartialMatrix& observed) const {
  std::vector<Matrix> out(members_.size());
  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
  pool.parallel_for(members_.size(), [&](std::size_t i) {
    out[i] = members_[i]->infer(observed);
  });
  return out;
}

std::vector<std::uint64_t> InferenceCommittee::checkpoint_state_words() const {
  std::vector<std::uint64_t> words;
  for (const auto& m : members_) {
    const std::vector<std::uint64_t> member = m->checkpoint_state_words();
    words.push_back(member.size());
    words.insert(words.end(), member.begin(), member.end());
  }
  return words;
}

void InferenceCommittee::restore_state_words(
    std::span<const std::uint64_t> words) const {
  for (const auto& m : members_) {
    DRCELL_CHECK_MSG(!words.empty() && words[0] <= words.size() - 1,
                     "truncated committee checkpoint state");
    const std::size_t count = words[0];
    m->restore_state_words(words.subspan(1, count));
    words = words.subspan(1 + count);
  }
  DRCELL_CHECK_MSG(words.empty(), "trailing committee checkpoint state");
}

Matrix InferenceCommittee::disagreement(
    const std::vector<Matrix>& predictions) {
  DRCELL_CHECK_MSG(!predictions.empty(), "no predictions");
  const std::size_t m = predictions.front().rows();
  const std::size_t n = predictions.front().cols();
  // Structural precondition, not a per-element check: it must stay active in
  // release builds because the flat-index loops below index every member's
  // data() against the front member's extent.
  for (const auto& p : predictions)
    DRCELL_CHECK_MSG(p.rows() == m && p.cols() == n,
                     "committee members disagree on the matrix shape");

  const double count = static_cast<double>(predictions.size());
  Matrix mean(m, n);
  for (const auto& p : predictions) mean += p;
  mean *= 1.0 / count;

  Matrix var(m, n);
  for (const auto& p : predictions) {
    for (std::size_t i = 0; i < var.data().size(); ++i) {
      const double d = p.data()[i] - mean.data()[i];
      var.data()[i] += d * d;
    }
  }
  var *= 1.0 / count;
  return var;
}

Matrix InferenceCommittee::mean_prediction(
    const std::vector<Matrix>& predictions) {
  DRCELL_CHECK_MSG(!predictions.empty(), "no predictions");
  Matrix mean = predictions.front();
  for (std::size_t i = 1; i < predictions.size(); ++i)
    mean += predictions[i];
  mean *= 1.0 / static_cast<double>(predictions.size());
  return mean;
}

}  // namespace drcell::cs
