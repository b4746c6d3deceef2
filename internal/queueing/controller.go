package queueing

// (validation helpers badConfig/validNum live in analytic.go)

// PIController is a proportional-integral admission controller in the style
// of Yaksha (Kamra et al.): it observes the measured response time each
// control interval and adjusts the admission probability to keep response
// near a target.
type PIController struct {
	// Kp and Ki are the proportional and integral gains.
	Kp, Ki float64
	// Target is the response-time set point.
	Target float64

	prevErr   float64
	admission float64
}

// NewPIController returns a controller with full admission initially.
func NewPIController(kp, ki, target float64) (*PIController, error) {
	if !validNum(target) || target <= 0 {
		return nil, badConfig("controller target must be positive, got %g", target)
	}
	if !validNum(kp, ki) || kp < 0 || ki < 0 {
		return nil, badConfig("controller gains must be non-negative, got kp=%g ki=%g", kp, ki)
	}
	return &PIController{Kp: kp, Ki: ki, Target: target, admission: 1}, nil
}

// Admission returns the current admission probability in [0, 1].
func (c *PIController) Admission() float64 { return c.admission }

// Observe feeds one control-interval measurement of the response time and
// updates the admission probability using the velocity (incremental) PI
// form, which has implicit anti-windup against the [0.01, 1] clamps. It
// returns the new admission probability.
func (c *PIController) Observe(measuredResponse float64) float64 {
	// Positive error = response too high = admit less. The normalized
	// error is clamped so a saturated measurement cannot slam the loop.
	err := (measuredResponse - c.Target) / c.Target
	const errCap = 2
	if err > errCap {
		err = errCap
	}
	if err < -errCap {
		err = -errCap
	}
	c.admission -= c.Kp*(err-c.prevErr) + c.Ki*err
	c.prevErr = err
	if c.admission < 0.01 {
		c.admission = 0.01
	}
	if c.admission > 1 {
		c.admission = 1
	}
	return c.admission
}
