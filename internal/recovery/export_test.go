package recovery

// ForgetWalk drops the step-2 walk a report carries, so Apply must list
// and walk the image itself — the reference the walk reuse is held to.
func ForgetWalk(r *Report) { r.res = nil }
