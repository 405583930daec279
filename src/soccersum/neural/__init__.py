from .kernels import (  # noqa: F401
    lstm_backward,
    lstm_backward_batch,
    lstm_forward,
    lstm_forward_batch,
    lstm_forward_numpy,
)
from .layers import (  # noqa: F401
    bce_loss,
    bce_sigmoid_grad,
    sigmoid,
)
from .optim import Adam, FitConfig, fit  # noqa: F401
from .params import (  # noqa: F401
    dense_init,
    load_checkpoint,
    lstm_init,
    read_layout,
    save_checkpoint,
    uniform_init,
    vector_init,
)
