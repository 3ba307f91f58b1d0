type payload = ..
