#ifndef ULTRAWIKI_MATH_SOFTMAX_H_
#define ULTRAWIKI_MATH_SOFTMAX_H_

#include <span>

namespace ultrawiki {

/// In-place softmax over `logits` (stable).
void SoftmaxInPlace(std::span<float> logits);

}  // namespace ultrawiki

#endif  // ULTRAWIKI_MATH_SOFTMAX_H_
