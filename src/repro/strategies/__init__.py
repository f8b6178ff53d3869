"""Prior regulation approaches (paper section 2), as runnable baselines."""
