"""Constants of the thrust-vector servo and the rate gyro.

The servo is a first-order lag (time constant 0.1 s) whose commanded
deflection rate is clamped to 25 deg/s before integration; the clamp acts
inside the loop, the way an electro-hydraulic actuator saturates.  Forward
Euler is deliberate: the clamp makes the dynamics non-smooth, so a
higher-order scheme buys nothing across the discontinuity.

The gyro is the second-order filter with natural frequency 80*pi rad/s and
damping 0.25, advanced with classical RK4 (smooth, moderately stiff).

Both blocks are stepped only inside the loop of `simulator.simulate`; this
module holds their shipped parameters.
"""

from __future__ import annotations

import math

__all__ = [
    "SERVO_TIME_CONSTANT",
    "SERVO_RATE_LIMIT",
    "GYRO_NATURAL_FREQ",
    "GYRO_DAMPING_TERM",
]

SERVO_TIME_CONSTANT = 0.1
SERVO_RATE_LIMIT = math.radians(25.0)
GYRO_NATURAL_FREQ = 80.0 * math.pi
GYRO_DAMPING_TERM = 40.0 * math.pi  # 2 * zeta * omega_n, i.e. zeta = 0.25
