#include "math/softmax.h"

#include <algorithm>
#include <cmath>

namespace ultrawiki {

void SoftmaxInPlace(std::span<float> logits) {
  if (logits.empty()) return;
  const float max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (float& v : logits) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (float& v : logits) v *= inv;
}

}  // namespace ultrawiki
