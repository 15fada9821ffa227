#include "swm/rhs.hpp"

namespace tfx::swm {

template class rhs_evaluator<double>;
template class rhs_evaluator<float>;
template class rhs_evaluator<double, slab<double>>;
template class rhs_evaluator<float, slab<float>>;

}  // namespace tfx::swm
